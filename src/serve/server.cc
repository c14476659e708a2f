#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <system_error>
#include <utility>

#include "common/strings.h"
#include "core/disambiguator.h"
#include "core/node_query.h"
#include "core/streaming_builder.h"
#include "obs/json_writer.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "snapshot/snapshot.h"
#include "xml/parser.h"

namespace xsdf::serve {

namespace {

/// Send budget for the accept-thread 503 reject; deliberately much
/// shorter than io_timeout_ms so a dead client cannot hold the accept
/// loop hostage.
constexpr int kRejectSendTimeoutMs = 250;

void SetCloexec(int fd) {
  int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void SetSocketTimeouts(int fd, int timeout_ms) {
  struct timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

/// The SplitMix64 output permutation: a cheap, well-mixed bijection —
/// salt + sequence in, uncorrelated-looking request ids out.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Parses exactly 16 lowercase/uppercase hex digits; 0 on any other
/// shape (0 is never a valid request id, so it doubles as "absent").
uint64_t ParseRequestIdHex(const std::string& text) {
  if (text.size() != 16) return 0;
  uint64_t value = 0;
  for (char c : text) {
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F') digit = static_cast<uint64_t>(c - 'A') + 10;
    else return 0;
    value = (value << 4) | digit;
  }
  return value;
}

uint64_t WallClockMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      slow_requests_(options_.slow_request_keep == 0
                         ? 1
                         : options_.slow_request_keep) {
  options_.engine.metrics = options_.metrics;
  measure_spec_ =
      options_.engine.disambiguator.EffectiveMeasureConfig().ToSpec();
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    requests_counter_ = m->GetCounter("serve.requests");
    overload_counter_ = m->GetCounter("serve.overload_rejects");
    deadline_counter_ = m->GetCounter("serve.deadline_rejects");
    swap_counter_ = m->GetCounter("serve.swaps");
    request_us_ = m->GetHistogram("serve.request_us");
    request_2xx_us_ = m->GetHistogram("serve.request_2xx_us");
    request_4xx_us_ = m->GetHistogram("serve.request_4xx_us");
    request_5xx_us_ = m->GetHistogram("serve.request_5xx_us");
  }
  std::random_device entropy;
  request_id_salt_ = (static_cast<uint64_t>(entropy()) << 32) ^ entropy();
}

Server::~Server() {
  RequestShutdown();
  // Run() joins connection threads; if Run() was never entered there
  // are none. The listener and wake pipe close here either way.
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

Status Server::InstallLexicon(
    std::shared_ptr<const wordnet::SemanticNetwork> network,
    std::string name) {
  if (network == nullptr) {
    return Status::InvalidArgument("null network");
  }
  if (!network->finalized()) {
    return Status::FailedPrecondition("network is not finalized");
  }
  auto state = std::make_shared<ServingState>();
  state->network = std::move(network);
  state->engine = std::make_unique<runtime::DisambiguationEngine>(
      state->network.get(), options_.engine);
  state->name = std::move(name);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    state->generation = next_generation_++;
    // The swap: readers that already resolved the old state keep it
    // (and its engine) alive through their shared_ptr; the old engine
    // destructs after its last in-flight request completes.
    state_.swap(state);
  }
  if (state != nullptr && state->engine != nullptr) {
    // `state` now holds the *previous* serving state; dropping it here
    // releases the installer's reference outside the lock.
    swaps_.fetch_add(1, std::memory_order_relaxed);
    if (swap_counter_ != nullptr) swap_counter_->Increment();
  }
  return Status::Ok();
}

std::shared_ptr<Server::ServingState> Server::CurrentState() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

uint64_t Server::generation() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_ == nullptr ? 0 : state_->generation;
}

Status Server::Start() {
  if (listen_fd_ >= 0) return Status::FailedPrecondition("already started");
  if (::pipe(wake_fds_) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  for (int pipe_fd : wake_fds_) {
    SetCloexec(pipe_fd);
    int flags = ::fcntl(pipe_fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(pipe_fd, F_SETFL, flags | O_NONBLOCK);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    int err = errno;
    ::close(fd);
    return Status::IoError(StrFormat("bind %s:%d: %s",
                                     options_.host.c_str(), options_.port,
                                     std::strerror(err)));
  }
  if (::listen(fd, 128) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError(std::string("listen: ") + std::strerror(err));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError(std::string("getsockname: ") +
                           std::strerror(err));
  }
  if (!options_.access_log_path.empty()) {
    auto log = std::make_unique<AccessLog>(options_.access_log_path);
    Status opened = log->Open();
    if (!opened.ok()) {
      ::close(fd);
      return opened;
    }
    access_log_ = std::move(log);
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  return Status::Ok();
}

void Server::RequestShutdown() {
  if (wake_fds_[1] < 0) {
    stop_.store(true, std::memory_order_relaxed);
    return;
  }
  // One byte on the self-pipe: async-signal-safe, idempotent enough
  // (the pipe is non-blocking; a full pipe means a wake is pending).
  char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void Server::Run() {
  struct pollfd fds[2];
  fds[0].fd = listen_fd_;
  fds[0].events = POLLIN;
  fds[1].fd = wake_fds_[0];
  fds[1].events = POLLIN;
  while (!stop_.load(std::memory_order_relaxed)) {
    ReapFinishedConnections();
    fds[0].revents = 0;
    fds[1].revents = 0;
    int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // shutdown requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    SetCloexec(client);
    if (active_connections_.fetch_add(1, std::memory_order_acq_rel) >=
        options_.max_connections) {
      active_connections_.fetch_sub(1, std::memory_order_acq_rel);
      // The reject is written from the accept thread: a short send
      // budget (not the full io timeout) so a slow client being turned
      // away cannot stall accept() for everyone else.
      SetSocketTimeouts(client, kRejectSendTimeoutMs);
      const uint64_t start_ns = obs::MonotonicNowNs();
      RequestContext ctx;
      ctx.request_id = GenerateRequestId();
      HttpResponse busy;
      busy.status = 503;
      busy.headers.emplace_back(
          "X-Xsdf-Request-Id",
          StrFormat("%016llx",
                    static_cast<unsigned long long>(ctx.request_id)));
      busy.body = "connection capacity reached\n";
      WriteHttpResponse(client, busy, false);
      ::close(client);
      const uint64_t end_ns = obs::MonotonicNowNs();
      const uint64_t total_us = (end_ns - start_ns + 500) / 1000;
      // Connection-capacity sheds are requests the daemon turned away
      // without ever parsing them: they still count, get latency
      // attribution (5xx class) and an access-log line — invisible
      // rejects would make overload look like lost traffic.
      RecordRequestLatency("", 503, total_us, end_ns);
      if (access_log_ != nullptr) {
        std::string line;
        AppendAccessLine(&line, ctx, "", "", 503, busy.body.size(),
                         total_us);
        access_log_->Submit(std::move(line));
      }
      continue;
    }
    SetSocketTimeouts(client, options_.io_timeout_ms);
    uint64_t connection_id;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connection_id = next_connection_id_++;
      connection_fds_.insert(client);
    }
    connection_threads_.emplace(
        connection_id,
        std::thread(&Server::HandleConnection, this, client, connection_id));
  }
  // Graceful drain: stop accepting, wake idle keep-alive reads
  // (SHUT_RD makes their recv return 0 = clean close) while leaving
  // the write side open so in-flight responses still go out, then wait
  // for every connection thread.
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RD);
  }
  for (auto& [id, thread] : connection_threads_) thread.join();
  connection_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    finished_connections_.clear();
  }
}

void Server::ReapFinishedConnections() {
  std::vector<uint64_t> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    finished.swap(finished_connections_);
  }
  for (uint64_t id : finished) {
    auto it = connection_threads_.find(id);
    if (it == connection_threads_.end()) continue;
    // The handler announced completion as its last act, so this join
    // returns (almost) immediately.
    it->second.join();
    connection_threads_.erase(it);
  }
}

void Server::HandleConnection(int fd, uint64_t connection_id) {
  const bool tracing = options_.slow_request_keep > 0;
  // Connection-local access-log buffer: formatted lines accumulate
  // here (no locks, no shared state) and flush to the sink in chunks.
  std::string log_buffer;
  for (;;) {
    // One clock read before the blocking read: the gap to `start_ns`
    // is the "read" span — header+body receive, plus keep-alive idle
    // time waiting for the request to arrive.
    const uint64_t read_start_ns = obs::MonotonicNowNs();
    HttpRequest request;
    Status read = ReadHttpRequest(
        fd, &request, options_.engine.parse_limits.max_input_bytes);
    if (!read.ok()) {
      if (read.code() != StatusCode::kNotFound) {
        HttpResponse error;
        error.status =
            read.code() == StatusCode::kOutOfRange ? 413 : 400;
        error.body = read.message() + "\n";
        WriteHttpResponse(fd, error, false);
      }
      break;
    }
    const uint64_t start_ns = obs::MonotonicNowNs();

    RequestContext ctx;
    ctx.request_id = ResolveRequestId(request);
    if (tracing) {
      ctx.trace =
          std::make_unique<obs::RequestTrace>(ctx.request_id, read_start_ns);
      ctx.trace->Add("read", read_start_ns, start_ns - read_start_ns);
    }

    HttpResponse response;
    {
      obs::RequestSpan dispatch_span(ctx.trace.get(), "dispatch");
      response = Dispatch(request, &ctx);
    }
    response.headers.emplace_back(
        "X-Xsdf-Request-Id",
        StrFormat("%016llx",
                  static_cast<unsigned long long>(ctx.request_id)));

    bool keep_alive =
        request.keep_alive && !stop_.load(std::memory_order_relaxed);
    const uint64_t send_start_ns = obs::MonotonicNowNs();
    Status written = WriteHttpResponse(fd, response, keep_alive);
    const uint64_t end_ns = obs::MonotonicNowNs();

    // Total = dispatch + send; the read span (keep-alive idle) is
    // excluded so slow clients do not masquerade as slow requests.
    const uint64_t total_us = (end_ns - start_ns + 500) / 1000;
    RecordRequestLatency(request.path, response.status, total_us, end_ns);
    if (access_log_ != nullptr) {
      AppendAccessLine(&log_buffer, ctx, request.method, request.path,
                       response.status, response.body.size(), total_us);
    }
    if (ctx.trace != nullptr) {
      ctx.trace->Add("send", send_start_ns, end_ns - send_start_ns);
      ctx.trace->set_total_us(total_us);
      ctx.trace->set_label(StrFormat("%s %s -> %d", request.method.c_str(),
                                     request.path.c_str(), response.status));
      slow_requests_.Offer(std::move(ctx.trace), end_ns);
    }
    if (!written.ok() || !keep_alive) break;
  }
  if (access_log_ != nullptr && !log_buffer.empty()) {
    access_log_->Submit(std::move(log_buffer));
  }
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connection_fds_.erase(fd);
    finished_connections_.push_back(connection_id);
  }
  ::close(fd);
  active_connections_.fetch_sub(1, std::memory_order_acq_rel);
}

uint64_t Server::GenerateRequestId() {
  return SplitMix64(request_id_salt_ +
                    request_id_seq_.fetch_add(1, std::memory_order_relaxed));
}

uint64_t Server::ResolveRequestId(const HttpRequest& request) {
  uint64_t supplied =
      ParseRequestIdHex(request.Header("x-xsdf-request-id", ""));
  return supplied != 0 ? supplied : GenerateRequestId();
}

void Server::RecordRequestLatency(const std::string& path, int status,
                                  uint64_t total_us, uint64_t now_ns) {
  if (request_us_ != nullptr) {
    request_us_->Record(total_us);
    obs::Histogram* by_class = status >= 500   ? request_5xx_us_
                               : status >= 400 ? request_4xx_us_
                                               : request_2xx_us_;
    if (by_class != nullptr) by_class->Record(total_us);
  }
  obs::RollingWindowHistogram& rolling =
      path == "/disambiguate" ? rolling_disambiguate_
      : path == "/explain"    ? rolling_explain_
                              : rolling_other_;
  rolling.Record(total_us, now_ns);
}

void Server::AppendAccessLine(std::string* buffer, const RequestContext& ctx,
                              const std::string& method,
                              const std::string& path, int status,
                              size_t bytes, uint64_t total_us) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("ts_ms").Value(WallClockMs());
  writer.Key("id").Value(StrFormat(
      "%016llx", static_cast<unsigned long long>(ctx.request_id)));
  writer.Key("method").Value(method);
  writer.Key("path").Value(path);
  writer.Key("status").Value(status);
  writer.Key("bytes").Value(static_cast<uint64_t>(bytes));
  writer.Key("total_us").Value(total_us);
  writer.Key("deadline_ms").Value(ctx.deadline_budget_ms);
  writer.Key("queue_us").Value(ctx.queue_wait_us);
  writer.Key("engine_us").Value(ctx.engine_us);
  writer.Key("worker").Value(static_cast<int64_t>(ctx.worker));
  writer.Key("measures").Value(measure_spec_);
  writer.EndObject();
  *buffer += writer.str();
  *buffer += '\n';
  if (buffer->size() >= AccessLog::kFlushBytes) {
    access_log_->Submit(std::move(*buffer));
    buffer->clear();
  }
}

uint64_t Server::RetryAfterSeconds(const ServingState& state,
                                   uint64_t now_ns) {
  const double drain_per_s =
      rolling_drain_.RatePerSecond(now_ns);
  const double depth = static_cast<double>(state.engine->queue_depth());
  // depth jobs ahead, drained at the observed rate; with no drain
  // history yet assume 1/s (the old hardcoded hint's behavior for a
  // shallow queue).
  double seconds = std::ceil(depth / std::max(drain_per_s, 1.0));
  if (seconds < 1.0) return 1;
  if (seconds > 30.0) return 30;
  return static_cast<uint64_t>(seconds);
}

HttpResponse Server::Dispatch(const HttpRequest& request,
                              RequestContext* ctx) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (requests_counter_ != nullptr) requests_counter_->Increment();
  if (request.path == "/disambiguate") {
    if (request.method != "POST") {
      return {405, {}, "POST required\n"};
    }
    return HandleDisambiguate(request, ctx);
  }
  if (request.path == "/explain") {
    if (request.method != "POST") {
      return {405, {}, "POST required\n"};
    }
    return HandleExplain(request);
  }
  if (request.path == "/metrics") return HandleMetrics(request);
  if (request.path == "/stats") return HandleStats();
  if (request.path == "/debug/slow") return HandleDebugSlow();
  if (request.path == "/healthz") {
    HttpResponse response;
    response.body = "ok\n";
    auto state = CurrentState();
    if (state != nullptr) {
      response.headers.emplace_back("X-Xsdf-Generation",
                                    StrFormat("%llu",
                                              static_cast<unsigned long long>(
                                                  state->generation)));
      response.headers.emplace_back("X-Xsdf-Lexicon", state->name);
    }
    return response;
  }
  if (request.path == "/admin/swap") {
    if (!options_.enable_admin) {
      return {404, {}, "admin endpoints disabled\n"};
    }
    if (request.method != "POST") {
      return {405, {}, "POST required\n"};
    }
    return HandleSwap(request);
  }
  return {404, {}, "no such endpoint\n"};
}

HttpResponse Server::HandleDisambiguate(const HttpRequest& request,
                                        RequestContext* ctx) {
  auto state = CurrentState();
  if (state == nullptr) {
    return {503, {}, "no lexicon installed\n"};
  }
  runtime::DocumentJob job;
  job.name = request.Header("x-xsdf-doc-name", "request");
  job.xml = request.body;
  job.rtrace = ctx->trace.get();
  const std::string deadline_ms = request.Header("x-xsdf-deadline-ms", "");
  if (!deadline_ms.empty()) {
    // A budget in whole milliseconds. A budget past int64_t saturates
    // in its own direction, and so do the ns conversion and the
    // addition below, so a huge budget means no practical deadline.
    const char* const end = deadline_ms.data() + deadline_ms.size();
    int64_t ms = 0;
    const auto [parsed_end, error] =
        std::from_chars(deadline_ms.data(), end, ms);
    if (error == std::errc::result_out_of_range && parsed_end == end) {
      ms = deadline_ms[0] == '-' ? std::numeric_limits<int64_t>::min()
                                 : std::numeric_limits<int64_t>::max();
    } else if (error != std::errc() || parsed_end != end) {
      return {400, {}, "malformed X-Xsdf-Deadline-Ms header\n"};
    }
    ctx->deadline_budget_ms = ms <= 0 ? 0 : static_cast<uint64_t>(ms);
    // ms <= 0 pins the deadline in the past — deterministic 504, used
    // by the tests to exercise shedding without timing races.
    constexpr uint64_t kNsPerMs = 1000000;
    constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();
    const uint64_t budget_ns = ctx->deadline_budget_ms > kNever / kNsPerMs
                                   ? kNever
                                   : ctx->deadline_budget_ms * kNsPerMs;
    const uint64_t now_ns = obs::MonotonicNowNs();
    job.deadline_ns = ms <= 0                      ? 1
                      : budget_ns > kNever - now_ns ? kNever
                                                    : now_ns + budget_ns;
  }
  std::optional<runtime::DocumentResult> result =
      state->engine->TryRunOne(std::move(job));

  HttpResponse response;
  response.headers.emplace_back(
      "X-Xsdf-Generation",
      StrFormat("%llu", static_cast<unsigned long long>(state->generation)));
  response.headers.emplace_back("X-Xsdf-Lexicon", state->name);
  if (!result.has_value()) {
    overload_rejects_.fetch_add(1, std::memory_order_relaxed);
    if (overload_counter_ != nullptr) overload_counter_->Increment();
    response.status = 429;
    response.headers.emplace_back(
        "Retry-After",
        StrFormat("%llu",
                  static_cast<unsigned long long>(RetryAfterSeconds(
                      *state, obs::MonotonicNowNs()))));
    response.body = "admission queue full\n";
    return response;
  }
  // The job left the admission queue (processed or shed): one drain
  // event for the Retry-After rate estimate, plus the engine
  // attribution the access log reports.
  rolling_drain_.Record(result->run_us, obs::MonotonicNowNs());
  ctx->queue_wait_us = result->queue_wait_us;
  ctx->engine_us = result->run_us;
  ctx->worker = result->worker;
  if (result->deadline_exceeded) {
    deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
    if (deadline_counter_ != nullptr) deadline_counter_->Increment();
    response.status = 504;
    response.body = "deadline exceeded\n";
    return response;
  }
  if (!result->ok) {
    response.status = 400;
    response.body = result->error + "\n";
    return response;
  }
  response.content_type = "application/xml";
  response.body = std::move(result->semantic_xml);
  return response;
}

HttpResponse Server::HandleExplain(const HttpRequest& request) {
  auto state = CurrentState();
  if (state == nullptr) {
    return {503, {}, "no lexicon installed\n"};
  }
  std::string query = request.QueryParam("node");
  if (query.empty()) {
    return {400, {}, "missing ?node= query parameter\n"};
  }
  // Same options and parse limits as the engine workers, so the audited
  // choice matches what /disambiguate answers for the same document and
  // both reject the same documents. The tree interns its labels through
  // the disambiguator's label space, so every explained node reads its
  // ids off the tree.
  core::DisambiguatorOptions doptions = options_.engine.disambiguator;
  core::Disambiguator system(state->network.get(), doptions);
  xml::ParseOptions parse_options;
  parse_options.limits = options_.engine.parse_limits;
  auto tree = core::BuildTreeStreaming(request.body, *state->network,
                                       parse_options, doptions.include_values,
                                       system.label_space());
  if (!tree.ok()) {
    return {400, {}, tree.status().ToString() + "\n"};
  }
  std::vector<xml::NodeId> matches = core::ResolveNodeQuery(*tree, query);
  if (matches.empty()) {
    return {404, {}, "no node matches '" + query + "'\n"};
  }
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("query");
  writer.Value(query);
  writer.Key("generation");
  writer.Value(static_cast<uint64_t>(state->generation));
  writer.Key("lexicon");
  writer.Value(state->name);
  writer.Key("measures");
  writer.Value(measure_spec_);
  writer.Key("nodes");
  writer.BeginArray();
  size_t explained = 0;
  for (xml::NodeId id : matches) {
    auto audit = system.ExplainNode(*tree, id);
    if (!audit.ok()) continue;  // senseless label: nothing to audit
    writer.BeginObject();
    core::AppendNodeAuditFields(&writer, *audit, *state->network);
    writer.EndObject();
    ++explained;
  }
  writer.EndArray();
  writer.Key("matches");
  writer.Value(static_cast<uint64_t>(matches.size()));
  writer.Key("explained");
  writer.Value(static_cast<uint64_t>(explained));
  writer.EndObject();

  HttpResponse response;
  response.content_type = "application/json";
  response.headers.emplace_back(
      "X-Xsdf-Generation",
      StrFormat("%llu", static_cast<unsigned long long>(state->generation)));
  response.headers.emplace_back("X-Xsdf-Lexicon", state->name);
  response.headers.emplace_back("X-Xsdf-Measures", measure_spec_);
  response.body = writer.str() + "\n";
  return response;
}

HttpResponse Server::HandleMetrics(const HttpRequest& request) {
  if (options_.metrics == nullptr) {
    return {404, {}, "no metrics registry attached\n"};
  }
  auto state = CurrentState();
  if (state != nullptr) state->engine->PublishStatsToMetrics();
  HttpResponse response;
  const std::string format = request.QueryParam("format");
  if (format == "prom") {
    // Prometheus text exposition 0.0.4 — what a scrape job ingests
    // directly; the JSON default stays the tooling interchange format.
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::ToPrometheusText(options_.metrics->Snapshot());
    return response;
  }
  if (!format.empty() && format != "json") {
    return {400, {}, "unknown ?format= (expected json or prom)\n"};
  }
  response.content_type = "application/json";
  response.body = options_.metrics->ToJson();
  return response;
}

HttpResponse Server::HandleDebugSlow() {
  if (options_.slow_request_keep == 0) {
    return {404, {}, "request tracing disabled\n"};
  }
  HttpResponse response;
  response.content_type = "application/json";
  response.body = slow_requests_.ToChromeTraceJson() + "\n";
  return response;
}

HttpResponse Server::HandleStats() {
  auto state = CurrentState();
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("requests");
  writer.Value(requests_.load(std::memory_order_relaxed));
  writer.Key("overload_rejects");
  writer.Value(overload_rejects_.load(std::memory_order_relaxed));
  writer.Key("deadline_rejects");
  writer.Value(deadline_rejects_.load(std::memory_order_relaxed));
  writer.Key("swaps");
  writer.Value(swaps_.load(std::memory_order_relaxed));
  writer.Key("active_connections");
  writer.Value(static_cast<int64_t>(
      active_connections_.load(std::memory_order_relaxed)));
  {
    // Rolling one-minute latency per endpoint group: what "is the
    // daemon healthy right now" needs, as opposed to the lifetime
    // histograms /metrics exports.
    const uint64_t now_ns = obs::MonotonicNowNs();
    writer.Key("endpoints");
    writer.BeginObject();
    auto emit = [&](const char* key,
                    const obs::RollingWindowHistogram& rolling) {
      obs::HistogramSnapshot window = rolling.Summarize(now_ns);
      writer.Key(key);
      writer.BeginObject();
      writer.Key("window_s").Value(
          static_cast<uint64_t>(rolling.window_ns() / 1000000000ull));
      writer.Key("count").Value(window.count);
      writer.Key("rate_per_s").Value(rolling.RatePerSecond(now_ns));
      writer.Key("p50_us").Value(window.ApproxPercentile(0.50));
      writer.Key("p90_us").Value(window.ApproxPercentile(0.90));
      writer.Key("p99_us").Value(window.ApproxPercentile(0.99));
      writer.Key("p999_us").Value(window.ApproxPercentile(0.999));
      writer.Key("max_us").Value(window.max);
      writer.EndObject();
    };
    emit("disambiguate", rolling_disambiguate_);
    emit("explain", rolling_explain_);
    emit("other", rolling_other_);
    writer.EndObject();
  }
  if (access_log_ != nullptr) {
    writer.Key("access_log_dropped");
    writer.Value(access_log_->dropped());
  }
  writer.Key("slow_traces_retained");
  writer.Value(static_cast<uint64_t>(slow_requests_.retained()));
  if (state != nullptr) {
    writer.Key("generation");
    writer.Value(static_cast<uint64_t>(state->generation));
    writer.Key("lexicon");
    writer.Value(state->name);
    writer.Key("measures");
    writer.Value(measure_spec_);
    writer.Key("engine");
    writer.Value(runtime::FormatEngineStats(state->engine->stats()));
  }
  writer.EndObject();
  HttpResponse response;
  response.content_type = "application/json";
  response.body = writer.str() + "\n";
  return response;
}

HttpResponse Server::HandleSwap(const HttpRequest& request) {
  if (!options_.admin_token.empty() &&
      request.Header("x-xsdf-admin-token", "") != options_.admin_token) {
    return {403, {}, "bad admin token\n"};
  }
  std::string path = request.QueryParam("snapshot");
  if (path.empty()) {
    return {400, {}, "missing ?snapshot= query parameter\n"};
  }
  if (!options_.admin_snapshot_dir.empty()) {
    std::error_code ec;
    std::filesystem::path resolved =
        std::filesystem::weakly_canonical(path, ec);
    std::filesystem::path root =
        std::filesystem::weakly_canonical(options_.admin_snapshot_dir, ec);
    // lexically_relative on canonical paths: "../" escapes (symlinks
    // included, since both sides are resolved first) are rejected.
    std::filesystem::path relative = resolved.lexically_relative(root);
    if (relative.empty() || relative.begin()->string() == "..") {
      return {403, {}, "snapshot path outside the configured directory\n"};
    }
    path = resolved.string();
  }
  auto network = snapshot::LoadNetworkSnapshot(path);
  if (!network.ok()) {
    // Load failures go to the server log, not the client: echoing
    // loader/strerror detail would let callers probe the filesystem.
    std::fprintf(stderr, "admin swap of %s rejected: %s\n", path.c_str(),
                 network.status().ToString().c_str());
    return {400, {}, "cannot load snapshot\n"};
  }
  Status installed = InstallLexicon(std::move(network).value(), path);
  if (!installed.ok()) {
    return {500, {}, installed.ToString() + "\n"};
  }
  HttpResponse response;
  response.content_type = "application/json";
  response.body = StrFormat(
      "{\"generation\": %llu}\n",
      static_cast<unsigned long long>(generation()));
  return response;
}

}  // namespace xsdf::serve
