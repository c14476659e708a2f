#!/usr/bin/env python3
"""Validates the xsdf observability exports (CI gate).

Subcommands:
  metrics FILE [--require-memo-hits]
                         --metrics-out JSON: schema + histogram invariants,
                         and the decision-memo counters are present with
                         lookups > 0 and hits <= lookups (hits > 0 with
                         the flag, for a batch run with --passes 2)
  trace FILE             --trace-out JSON: schema + span timeline invariants
  explain BATCH EXPLAIN...
                         `xsdf explain` outputs vs `xsdf batch` stdout:
                         each audited chosen sense (concept_id,
                         concept2_id) and its score at the four decimals
                         the batch prints must equal what the batch
                         pipeline assigned
  prom FILE              GET /metrics?format=prom capture: text exposition
                         format 0.0.4 grammar + histogram bucket invariants
  accesslog FILE         `xsdf serve --access-log` JSONL: every line parses
                         and matches the access_log schema
  loadgen FILE           `xsdf loadgen --json` report: every section matches
                         the loadgen schema + latency ordering invariants

Uses only the standard library; the schema files under tools/schemas/
are a small JSON-Schema subset (type / required / properties /
additionalProperties / items / minimum) interpreted here directly so the
checked-in schema stays the single source of truth for the file shapes.
"""

import argparse
import json
import os
import re
import sys

SCHEMA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "schemas")

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
}


def check_schema(value, schema, path="$"):
    """Returns a list of violation messages (empty = conforming)."""
    errors = []
    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        ok = isinstance(value, python_type)
        if expected in ("integer", "number") and isinstance(value, bool):
            ok = False  # bool is an int subclass; reject it as a number
        if expected == "number" and isinstance(value, int):
            ok = True
        if not ok:
            return [f"{path}: expected {expected}, got {type(value).__name__}"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        minimum = schema.get("minimum")
        if minimum is not None and value < minimum:
            errors.append(f"{path}: {value} below minimum {minimum}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key '{key}'")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, child in value.items():
            child_path = f"{path}.{key}"
            if key in properties:
                errors.extend(check_schema(child, properties[key], child_path))
            elif isinstance(additional, dict):
                errors.extend(check_schema(child, additional, child_path))
            elif additional is False:
                errors.append(f"{path}: unexpected key '{key}'")
    if isinstance(value, list):
        items = schema.get("items")
        if isinstance(items, dict):
            for i, child in enumerate(value):
                errors.extend(check_schema(child, items, f"{path}[{i}]"))
    return errors


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def fail(messages):
    for message in messages:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1


def validate_metrics(args):
    data = load_json(args.file)
    errors = check_schema(data, load_json(os.path.join(SCHEMA_DIR, "metrics.schema.json")))

    for name, histogram in data.get("histograms", {}).items():
        bounds = histogram.get("bounds", [])
        counts = histogram.get("counts", [])
        if sorted(set(bounds)) != bounds:
            errors.append(f"histogram {name}: bounds not strictly increasing")
        if len(counts) != len(bounds) + 1:
            errors.append(
                f"histogram {name}: {len(counts)} buckets for {len(bounds)} bounds"
            )
        if sum(counts) != histogram.get("count", -1):
            errors.append(f"histogram {name}: bucket sum != count")

    # The engine instruments the batch pipeline end to end; a metrics
    # file from a successful batch run must carry all of these.
    required_counters = ["engine.documents", "engine.nodes", "engine.assignments"]
    required_histograms = [
        "stage.parse_us",
        "stage.select_us",
        "stage.context_us",
        "stage.score_us",
        "stage.serialize_us",
        "engine.job_wait_us",
        "engine.job_run_us",
        "engine.queue_depth",
        "core.node_ambiguity_pct",
        "core.node_candidates",
        "core.node_top2_margin_milli",
    ]
    # Published by PublishStatsToMetrics() (batch --metrics-out and the
    # serve /metrics endpoint both call it before exporting): the
    # giant-document front-end memory gauge and the intra-document
    # work-stealing activity gauges.
    required_gauges = [
        "frontend.arena_peak_bytes",
        "engine.subtree_steals",
        "engine.subtree_queue_depth",
    ]
    for name in required_counters:
        if name not in data.get("counters", {}):
            errors.append(f"missing counter {name}")
    for name in required_histograms:
        if name not in data.get("histograms", {}):
            errors.append(f"missing histogram {name}")
    for name in required_gauges:
        if name not in data.get("gauges", {}):
            errors.append(f"missing gauge {name}")
    documents = data.get("counters", {}).get("engine.documents", 0)
    if documents <= 0:
        errors.append("engine.documents is zero — batch recorded nothing")
    for stage in ("stage.parse_us", "engine.job_run_us"):
        count = data.get("histograms", {}).get(stage, {}).get("count", 0)
        if count != documents:
            errors.append(
                f"{stage}: {count} samples for {documents} documents"
            )
    # The disambiguation stages record one sample per document that got
    # past the front end, at any worker count (documents that fail to
    # parse are the only engine failures and never reach them).
    built = documents - data.get("counters", {}).get("engine.failures", 0)
    for stage in ("stage.select_us", "stage.context_us", "stage.score_us"):
        count = data.get("histograms", {}).get(stage, {}).get("count", 0)
        if count != built:
            errors.append(
                f"{stage}: {count} samples for {built} documents "
                f"past the front end"
            )
    # The decision memo: every multi-candidate target is one lookup, and
    # only a lookup can hit. A second pass over the same corpus repeats
    # every sphere, so it must hit.
    counters = data.get("counters", {})
    lookups = counters.get("core.decision_memo_lookups")
    hits = counters.get("core.decision_memo_hits")
    if lookups is None or hits is None:
        errors.append("missing counter core.decision_memo_lookups or "
                      "core.decision_memo_hits")
    else:
        if lookups <= 0:
            errors.append("core.decision_memo_lookups is zero")
        if hits > lookups:
            errors.append(f"core.decision_memo_hits {hits} exceeds "
                          f"core.decision_memo_lookups {lookups}")
        if args.require_memo_hits and hits <= 0:
            errors.append("core.decision_memo_hits is zero")
    if errors:
        return fail(errors)
    print(
        f"OK: metrics file valid ({len(data['counters'])} counters, "
        f"{len(data['gauges'])} gauges, {len(data['histograms'])} histograms)"
    )
    return 0


def validate_trace(args):
    data = load_json(args.file)
    errors = check_schema(data, load_json(os.path.join(SCHEMA_DIR, "trace.schema.json")))

    spans = [e for e in data.get("traceEvents", []) if e.get("ph") == "X"]
    metadata = [e for e in data.get("traceEvents", []) if e.get("ph") == "M"]
    if not spans:
        errors.append("no complete ('X') spans in trace")
    for i, span in enumerate(spans):
        if "ts" not in span or "dur" not in span:
            errors.append(f"span {i} ({span.get('name')}): missing ts/dur")

    # Per-worker timeline sanity: a worker processes one document at a
    # time, so its document spans must not overlap, and stage spans must
    # nest inside a container span on the same tid. Containers are
    # "document" spans and "subtree_chunk" spans — a worker stealing
    # target chunks from another worker's document emits per-node spans
    # under a subtree_chunk container on its own tid, with the owning
    # document span living on the owner's tid.
    by_tid = {}
    for span in spans:
        by_tid.setdefault(span["tid"], []).append(span)
    for tid, tid_spans in sorted(by_tid.items()):
        documents = sorted(
            (s for s in tid_spans if s["name"] == "document"),
            key=lambda s: s["ts"],
        )
        containers = sorted(
            (s for s in tid_spans if s["name"] in ("document", "subtree_chunk")),
            key=lambda s: s["ts"],
        )
        for a, b in zip(documents, documents[1:]):
            if a["ts"] + a["dur"] > b["ts"] + 1e-6:
                errors.append(
                    f"tid {tid}: document spans overlap at ts={b['ts']}"
                )
        for span in tid_spans:
            if span["name"] in ("document", "subtree_chunk"):
                continue
            inside = any(
                d["ts"] - 1e-3 <= span["ts"]
                and span["ts"] + span["dur"] <= d["ts"] + d["dur"] + 1e-3
                for d in containers
            )
            if containers and not inside:
                errors.append(
                    f"tid {tid}: '{span['name']}' span at ts={span['ts']} "
                    "outside every container span"
                )

    named_tids = {
        e["tid"]
        for e in metadata
        if e.get("name") == "thread_name"
        and e.get("args", {}).get("name", "").startswith("worker-")
    }
    unnamed = sorted(set(by_tid) - named_tids)
    if unnamed:
        errors.append(f"tids without a worker thread_name: {unnamed}")
    if args.workers is not None and len(by_tid) > args.workers:
        errors.append(
            f"{len(by_tid)} recording tids for --workers {args.workers}"
        )
    if errors:
        return fail(errors)
    print(
        f"OK: trace valid ({len(spans)} spans across {len(by_tid)} worker "
        "threads)"
    )
    return 0


def batch_assignments(batch_path, document):
    """(concept_id, concept2_id, score text) per preorder node index of
    the annotated nodes, parsed from batch stdout; concept2_id is None
    for a simple sense.

    Batch output interleaves `<!-- name -->` comment headers with each
    document's semantic tree; `<node ...>` elements appear in preorder,
    so the Nth one is exactly tree node N — the same ids `xsdf explain`
    reports.
    """
    with open(batch_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    sections = re.split(r"<!--\s*(.*?)\s*-->", text)
    # re.split yields [prefix, name1, body1, name2, body2, ...]
    body = None
    for name, section in zip(sections[1::2], sections[2::2]):
        if name == document or os.path.basename(name) == os.path.basename(document):
            body = section
            break
    if body is None:
        raise SystemExit(f"FAIL: document '{document}' not in {batch_path}")
    assigned = {}
    for index, match in enumerate(re.finditer(r"<node\b([^>]*)>", body)):
        attrs = match.group(1)
        concept = re.search(r'concept_id="(\d+)"', attrs)
        if concept:
            concept2 = re.search(r'concept2_id="(\d+)"', attrs)
            score = re.search(r'score="([^"]*)"', attrs)
            assigned[index] = (
                int(concept.group(1)),
                int(concept2.group(1)) if concept2 else None,
                score.group(1) if score else None,
            )
    return assigned


def same_printed_score(printed, score):
    """Whether `score` prints as the batch's four-decimal `printed`.

    Explain writes scores with nine significant digits, so a value
    within that rounding of a four-decimal tie may print as either
    neighbour; any other difference is a mismatch.
    """
    if printed == f"{score:.4f}":
        return True
    try:
        value = float(printed)
    except (TypeError, ValueError):
        return False
    return abs(abs(score - value) - 0.00005) <= 1e-8 * max(1.0, abs(score))


def validate_explain(args):
    errors = []
    compared = 0
    for explain_path in args.explain:
        explain = load_json(explain_path)
        assigned = batch_assignments(args.batch, explain["file"])
        for audit in explain.get("nodes", []):
            node = audit["node"]
            chosen = audit.get("chosen")
            if chosen is None:
                continue
            if node not in assigned:
                # Explain audits any node with candidate senses; batch only
                # annotates selected targets. Absence is fine — a *different*
                # sense is not.
                continue
            compared += 1
            concept, concept2, printed = assigned[node]
            where = f"{explain['file']} node {node} ('{audit.get('label')}')"
            if concept != chosen["concept_id"]:
                errors.append(
                    f"{where}: batch assigned concept {concept}, explain "
                    f"chose {chosen['concept_id']}"
                )
            if concept2 != chosen.get("concept2_id"):
                errors.append(
                    f"{where}: batch assigned concept2 {concept2}, explain "
                    f"chose {chosen.get('concept2_id')}"
                )
            if not same_printed_score(printed, chosen["score"]):
                errors.append(
                    f"{where}: batch printed score {printed}, explain "
                    f"scored {chosen['score']}"
                )
    if compared == 0:
        errors.append("no overlapping nodes between batch and explain output")
    if errors:
        return fail(errors)
    print(f"OK: explain matches batch on {compared} node(s)")
    return 0


_PROM_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_SAMPLE = re.compile(
    r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+]+|\+Inf|-Inf|NaN)$"
)


def validate_prom(args):
    """Prometheus text exposition format 0.0.4 grammar + invariants.

    Beyond line grammar: every sample's metric must be declared by a
    preceding # TYPE line, histogram buckets must be cumulative with a
    +Inf bucket equal to _count, and counters must end in _total.
    """
    with open(args.file, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    errors = []
    types = {}  # metric family name -> counter|gauge|histogram
    samples = []  # (name, labels, value)
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                errors.append(f"line {number}: malformed TYPE line: {line}")
                continue
            if not _PROM_NAME.match(parts[2]):
                errors.append(f"line {number}: bad metric name '{parts[2]}'")
            if parts[2] in types:
                errors.append(f"line {number}: duplicate TYPE for {parts[2]}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("# HELP ") or line.startswith("#"):
            continue
        match = _PROM_SAMPLE.match(line)
        if not match:
            errors.append(f"line {number}: unparseable sample: {line}")
            continue
        name, labels, value = match.groups()
        samples.append((name, labels or "", value, number))

    def family(name):
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                return name[: -len(suffix)]
        return name

    by_family = {}
    for name, labels, value, number in samples:
        fam = family(name)
        if fam not in types:
            errors.append(f"line {number}: sample '{name}' has no TYPE line")
            continue
        by_family.setdefault(fam, []).append((name, labels, value))

    for fam, kind in sorted(types.items()):
        rows = by_family.get(fam, [])
        if not rows:
            errors.append(f"metric {fam}: TYPE declared but no samples")
            continue
        if kind == "counter":
            if not fam.endswith("_total"):
                errors.append(f"counter {fam}: name must end in _total")
            for _, _, value in rows:
                if float(value) < 0:
                    errors.append(f"counter {fam}: negative value {value}")
        if kind == "histogram":
            buckets = []
            count = total = None
            for name, labels, value in rows:
                if name == fam + "_bucket":
                    le = re.search(r'le="([^"]*)"', labels)
                    if not le:
                        errors.append(f"histogram {fam}: bucket without le=")
                        continue
                    buckets.append((le.group(1), int(float(value))))
                elif name == fam + "_count":
                    count = int(float(value))
                elif name == fam + "_sum":
                    total = float(value)
            if count is None or total is None:
                errors.append(f"histogram {fam}: missing _sum or _count")
                continue
            if not buckets or buckets[-1][0] != "+Inf":
                errors.append(f"histogram {fam}: final bucket must be +Inf")
                continue
            cumulative = [value for _, value in buckets]
            if cumulative != sorted(cumulative):
                errors.append(f"histogram {fam}: buckets not cumulative")
            if buckets[-1][1] != count:
                errors.append(
                    f"histogram {fam}: +Inf bucket {buckets[-1][1]} != "
                    f"_count {count}"
                )
    if errors:
        return fail(errors)
    kinds = {}
    for kind in types.values():
        kinds[kind] = kinds.get(kind, 0) + 1
    summary = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
    print(f"OK: prometheus exposition valid ({summary}; {len(samples)} samples)")
    return 0


def validate_accesslog(args):
    schema = load_json(os.path.join(SCHEMA_DIR, "access_log.schema.json"))
    errors = []
    lines = 0
    statuses = {}
    with open(args.file, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            lines += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                errors.append(f"line {number}: not JSON ({error})")
                continue
            errors.extend(check_schema(record, schema, f"line {number}"))
            status = record.get("status")
            statuses[status] = statuses.get(status, 0) + 1
            # A request that reached a worker must carry attribution;
            # one that never did must not claim engine time.
            worker = record.get("worker", -1)
            if worker == -1 and record.get("engine_us", 0) != 0:
                errors.append(
                    f"line {number}: engine_us without a worker claim"
                )
    if lines == 0:
        errors.append("access log is empty")
    if args.require_status:
        for wanted in args.require_status:
            if wanted not in statuses:
                errors.append(
                    f"no line with status {wanted} (saw {sorted(statuses)})"
                )
    if errors:
        return fail(errors)
    spread = ", ".join(f"{s}:{n}" for s, n in sorted(statuses.items()))
    print(f"OK: access log valid ({lines} lines; status {spread})")
    return 0


def validate_loadgen(args):
    data = load_json(args.file)
    schema = load_json(os.path.join(SCHEMA_DIR, "loadgen.schema.json"))
    errors = []
    if not isinstance(data, dict) or not data:
        return fail(["loadgen report must be a non-empty object of sections"])
    for label, section in sorted(data.items()):
        errors.extend(check_schema(section, schema, f"$.{label}"))
        if not isinstance(section, dict):
            continue
        latency = section.get("latency_us", {})
        ordered = [
            latency.get(key, 0)
            for key in ("min", "p50", "p90", "p99", "p999", "max")
        ]
        if ordered != sorted(ordered):
            errors.append(f"$.{label}: latency percentiles not monotone")
        completed = section.get("completed", 0)
        if latency.get("count") != completed:
            errors.append(
                f"$.{label}: latency count {latency.get('count')} != "
                f"completed {completed}"
            )
        by_status = sum(section.get("status", {}).values())
        if by_status != completed:
            errors.append(
                f"$.{label}: status counts sum {by_status} != "
                f"completed {completed}"
            )
        if completed > 0 and not section.get("coordinated_omission_safe"):
            errors.append(f"$.{label}: latencies not CO-safe")
    if args.require_status:
        seen = set()
        for section in data.values():
            if isinstance(section, dict):
                seen.update(section.get("status", {}))
        for wanted in args.require_status:
            if str(wanted) not in seen:
                errors.append(
                    f"no section observed status {wanted} (saw {sorted(seen)})"
                )
    if errors:
        return fail(errors)
    print(f"OK: loadgen report valid ({len(data)} section(s))")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    metrics = commands.add_parser("metrics")
    metrics.add_argument("file")
    metrics.add_argument(
        "--require-memo-hits", action="store_true",
        help="fail unless core.decision_memo_hits > 0 (a batch run with "
             "--passes 2 repeats every sphere)")
    metrics.set_defaults(handler=validate_metrics)

    trace = commands.add_parser("trace")
    trace.add_argument("file")
    trace.add_argument("--workers", type=int, default=None)
    trace.set_defaults(handler=validate_trace)

    explain = commands.add_parser("explain")
    explain.add_argument("batch", help="captured `xsdf batch` stdout")
    explain.add_argument("explain", nargs="+",
                         help="`xsdf explain` JSON outputs")
    explain.set_defaults(handler=validate_explain)

    prom = commands.add_parser("prom")
    prom.add_argument("file", help="captured GET /metrics?format=prom body")
    prom.set_defaults(handler=validate_prom)

    accesslog = commands.add_parser("accesslog")
    accesslog.add_argument("file", help="`xsdf serve --access-log` JSONL file")
    accesslog.add_argument(
        "--require-status", type=int, action="append", default=[],
        help="fail unless a line with this status code is present "
             "(repeatable)")
    accesslog.set_defaults(handler=validate_accesslog)

    loadgen = commands.add_parser("loadgen")
    loadgen.add_argument("file", help="`xsdf loadgen --json` report file")
    loadgen.add_argument(
        "--require-status", type=int, action="append", default=[],
        help="fail unless some section observed this status (repeatable)")
    loadgen.set_defaults(handler=validate_loadgen)

    args = parser.parse_args()
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
