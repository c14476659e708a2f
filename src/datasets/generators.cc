// Deterministic generators for the ten dataset families of paper
// Table 3. Each generator reproduces the family's grammar (tags per
// its DTD), its approximate shape statistics (documents, node counts,
// depth, fan-out), and its Table 1 group profile (ambiguity x
// structure), and injects a gold standard: the sense each label was
// generated to mean, keyed by preprocessed node label.

#include "datasets/generator.h"

#include <memory>

#include "common/check.h"
#include "common/strings.h"
#include "text/preprocess.h"
#include "wordnet/mini_wordnet.h"
#include "xml/escape.h"

namespace xsdf::datasets {

namespace {

/// One vocabulary item: the surface word used in the document and the
/// lexicon key of the sense it is used in.
struct Vocab {
  const char* word;
  const char* key;
};

/// Lexicon probe against the mini-WordNet, used to normalize gold
/// labels exactly the way tree labels are normalized.
const text::LexiconProbe& GoldProbe() {
  static const text::LexiconProbe* probe = [] {
    auto network = wordnet::BuildMiniWordNet();
    auto* owned =
        new wordnet::SemanticNetwork(std::move(network).value());
    return new text::LexiconProbe(
        [owned](const std::string& lemma) { return owned->Contains(lemma); });
  }();
  return *probe;
}

/// An element of the document a DocBuilder is writing: its nesting
/// level, and the serial that tells it from a later element opened at
/// the same level after it closed.
struct Element {
  size_t level = 0;
  uint64_t serial = 0;
};

/// Builder for one generated document. The XML is written forward into
/// GeneratedDocument::xml, in document order, with no tree behind it:
/// the declaration line, then `<tag/>` for a childless element,
/// `<tag>text</tag>` when its only content is text, and otherwise each
/// child on its own line, indented two spaces per level. Appending
/// under an element closes every element opened after it, so the
/// generators append in document order; appending to a closed element,
/// text after child elements, or an attribute after content is a
/// generator bug.
class DocBuilder {
 public:
  explicit DocBuilder(const char* root_tag) {
    out_.xml = "<?xml version=\"1.0\"?>\n";
    Open(root_tag);
  }

  Element root() const { return {0, 0}; }

  /// Records that the node label derived from `label` was generated in
  /// sense `key`. The label is normalized through the same linguistic
  /// pipeline that produces tree labels ("authors" -> "author",
  /// "personae" -> "persona"), so evaluation keys always match.
  void Gold(const std::string& label, const std::string& key) {
    out_.gold[text::PreprocessTagName(label, GoldProbe()).label] = key;
  }

  /// Adds <tag> under `parent`, recording gold for the tag when `key` is
  /// non-null.
  Element Elem(Element parent, const char* tag, const char* key = nullptr) {
    if (key != nullptr) Gold(AsciiToLower(tag), key);
    XSDF_DCHECK(IsOpen(parent), "element appended to a closed element");
    while (open_.size() > parent.level + 1) Close();
    OpenFrame& frame = open_.back();
    XSDF_DCHECK(frame.content != Content::kText,
                "element appended after text content");
    if (frame.content == Content::kNone) out_.xml += '>';
    frame.content = Content::kElements;
    AppendIndent(open_.size());
    return Open(tag);
  }

  /// Adds ` name="value"` to `element`, which must have no content yet.
  void Attribute([[maybe_unused]] Element element, const char* name,
                 const std::string& value) {
    XSDF_DCHECK(IsOpen(element) && element.level + 1 == open_.size() &&
                    open_.back().content == Content::kNone,
                "attribute added after content");
    out_.xml += ' ';
    out_.xml += name;
    out_.xml += "=\"";
    xml::AppendEscaped(&out_.xml, value, /*attribute=*/true);
    out_.xml += '"';
  }

  /// Adds <tag>word</tag> where `word` comes from the vocabulary item;
  /// gold is recorded for both the tag and the value word.
  Element ElemWithVocab(Element parent, const char* tag, const char* tag_key,
                        const Vocab& value) {
    Element e = Elem(parent, tag, tag_key);
    Text(value.word);
    if (value.key != nullptr) Gold(value.word, value.key);
    return e;
  }

  /// Adds <tag>text</tag> with no gold for the value.
  Element ElemWithText(Element parent, const char* tag, const char* tag_key,
                       const std::string& text) {
    Element e = Elem(parent, tag, tag_key);
    Text(text);
    return e;
  }

  GeneratedDocument Finish(std::string name) {
    while (!open_.empty()) Close();
    out_.name = std::move(name);
    return std::move(out_);
  }

 private:
  enum class Content { kNone, kText, kElements };
  struct OpenFrame {
    const char* tag;
    uint64_t serial;
    Content content;
  };

  bool IsOpen(Element element) const {
    return element.level < open_.size() &&
           open_[element.level].serial == element.serial;
  }

  Element Open(const char* tag) {
    out_.xml += '<';
    out_.xml += tag;
    const Element element{open_.size(), next_serial_++};
    open_.push_back({tag, element.serial, Content::kNone});
    return element;
  }

  /// Text content of the innermost open element, just opened.
  void Text(std::string_view text) {
    OpenFrame& frame = open_.back();
    XSDF_DCHECK(frame.content != Content::kElements,
                "text appended after child elements");
    if (frame.content == Content::kNone) out_.xml += '>';
    frame.content = Content::kText;
    xml::AppendEscaped(&out_.xml, text, /*attribute=*/false);
  }

  void Close() {
    const OpenFrame& frame = open_.back();
    switch (frame.content) {
      case Content::kNone:
        out_.xml += "/>";
        break;
      case Content::kText:
        out_.xml += "</";
        out_.xml += frame.tag;
        out_.xml += '>';
        break;
      case Content::kElements:
        AppendIndent(open_.size() - 1);
        out_.xml += "</";
        out_.xml += frame.tag;
        out_.xml += '>';
        break;
    }
    open_.pop_back();
  }

  void AppendIndent(size_t level) {
    out_.xml += '\n';
    out_.xml.append(2 * level, ' ');
  }

  GeneratedDocument out_;
  std::vector<OpenFrame> open_;
  uint64_t next_serial_ = 0;
};

const Vocab& Pick(Rng& rng, const std::vector<Vocab>& pool) {
  return pool[rng.UniformInt(pool.size())];
}

// ===================== Dataset 1: Shakespeare (Group 1) ==================
// shakespeare.dtd: PLAY / TITLE / PERSONAE / PERSONA / ACT / SCENE /
// SPEECH / SPEAKER / LINE / STAGEDIR. Deep (depth ~6), large (~190
// nodes/doc), and highly ambiguous: tag labels (play, act, scene,
// speech, line, title) and line words are all heavily polysemous.
class ShakespeareGenerator : public DatasetGenerator {
 public:
  DatasetInfo info() const override {
    return {1, "Shakespeare collection", "shakespeare.dtd", 1, 10};
  }

  std::vector<GeneratedDocument> Generate(uint64_t seed) const override {
    // Line vocabulary comes in *themes*: within one document each theme
    // word keeps one sense, and sibling words of the same line share the
    // theme, so the sphere context disambiguates them while the root
    // path (line/speech/scene/act/play) carries no signal — the
    // condition under which comprehensive structural context pays off.
    const std::vector<std::vector<Vocab>> kThemes = {
        // celestial imagery
        {{"star", "star.celestial.n"},
         {"light", "light.n"},
         {"sun", "sun.n"},
         {"shade", "shade.n"}},
        // the body
        {{"head", "head.body.n"},
         {"member", "member.limb.n"},
         {"rear", "rear.body.n"},
         {"soul", "person.n"}},
        // the royal court
        {{"king", "king.n"},
         {"prince", "prince.n"},
         {"princess", "princess.n"},
         {"grace", "grace.elegance.n"}},
        // letters and words
        {{"word", "word.n"},
         {"name", "name.n"},
         {"verse", "verse.line.n"},
         {"poem", "poem.n"}},
    };
    const std::vector<Vocab> kSpeakers = {
        {"hamlet", "hamlet.play.n"}, {"messenger", "messenger.n"},
        {"clown", "clown.n"},        {"dancer", "dancer.n"},
    };
    const std::vector<Vocab> kTitles = {
        {"tragedy", "tragedy.n"}, {"comedy", "comedy.n"},
        {"drama", "play.drama.n"},
    };
    std::vector<GeneratedDocument> docs;
    for (int d = 0; d < info().doc_count; ++d) {
      Rng rng(seed + static_cast<uint64_t>(d) * 7919);
      // Two disjoint themes per document keep gold one-sense-per-doc.
      size_t theme_a = rng.UniformInt(kThemes.size());
      size_t theme_b =
          (theme_a + 1 + rng.UniformInt(kThemes.size() - 1)) %
          kThemes.size();
      const std::vector<const std::vector<Vocab>*> doc_themes = {
          &kThemes[theme_a], &kThemes[theme_b]};
      DocBuilder b("PLAY");
      b.Gold("play", "play.drama.n");
      b.ElemWithVocab(b.root(), "TITLE", "title.name.n",
                      Pick(rng, kTitles));
      Element personae = b.Elem(b.root(), "PERSONAE", "persona.n");
      b.Gold("personae", "persona.n");
      int persona_count = 2 + static_cast<int>(rng.UniformInt(3));
      for (int p = 0; p < persona_count; ++p) {
        b.ElemWithVocab(personae, "PERSONA", "persona.n",
                        Pick(rng, kSpeakers));
      }
      int acts = 3 + static_cast<int>(rng.UniformInt(2));
      for (int a = 0; a < acts; ++a) {
        Element act = b.Elem(b.root(), "ACT", "act.play.n");
        b.ElemWithVocab(act, "TITLE", "title.name.n", Pick(rng, kTitles));
        int scenes = 2 + static_cast<int>(rng.UniformInt(2));
        for (int s = 0; s < scenes; ++s) {
          Element scene = b.Elem(act, "SCENE", "scene.play.n");
          if (rng.Bernoulli(0.4)) {
            b.ElemWithVocab(scene, "STAGEDIR", "stage_direction.n",
                            Pick(rng, kSpeakers));
            b.Gold("stagedir", "stage_direction.n");
          }
          int speeches = 2 + static_cast<int>(rng.UniformInt(2));
          for (int sp = 0; sp < speeches; ++sp) {
            Element speech = b.Elem(scene, "SPEECH", "speech.lines.n");
            b.ElemWithVocab(speech, "SPEAKER", "speaker.n",
                            Pick(rng, kSpeakers));
            int lines = 1 + static_cast<int>(rng.UniformInt(2));
            for (int l = 0; l < lines; ++l) {
              // One theme per line; 2-3 theme words side by side so
              // sibling tokens disambiguate each other.
              const std::vector<Vocab>& theme =
                  *doc_themes[rng.UniformInt(doc_themes.size())];
              std::string text;
              int words = 2 + static_cast<int>(rng.UniformInt(2));
              for (int w = 0; w < words; ++w) {
                const Vocab& v = theme[rng.UniformInt(theme.size())];
                if (!text.empty()) text += ' ';
                text += v.word;
                b.Gold(v.word, v.key);
              }
              b.ElemWithText(speech, "LINE", "line.text.n", text);
            }
          }
        }
      }
      docs.push_back(b.Finish(StrFormat("shakespeare_%02d.xml", d)));
    }
    return docs;
  }
};

// ===================== Dataset 2: Amazon products (Group 2) ==============
// amazon_product.dtd: flat but wide product records with highly
// polysemous tags (title, weight, brand, condition, stock, volume) and
// values (golf club, cd, record, band, track...).
class AmazonGenerator : public DatasetGenerator {
 public:
  DatasetInfo info() const override {
    return {2, "Amazon product files", "amazon_product.dtd", 2, 10};
  }

  std::vector<GeneratedDocument> Generate(uint64_t seed) const override {
    const std::vector<Vocab> kProducts = {
        {"club", "club.golf.n"},     {"record", "record.disc.n"},
        {"book", "book.n"},          {"cd", "cd.n"},
        {"album", "album.n"},        {"magazine", "magazine.n"},
        {"wheelchair", "wheelchair.n"}, {"phone", "phone.n"},
        {"light", "light.lamp.n"},   {"dish", "dish.antenna.n"},
    };
    const std::vector<Vocab> kCategories = {
        {"music", "music.n.art"},    {"sport", "sport.n"},
        {"game", "game.n"},          {"food", "food.n"},
    };
    const std::vector<Vocab> kConditions = {
        {"new", nullptr}, {"used", nullptr}, {"refurbished", nullptr},
    };
    std::vector<GeneratedDocument> docs;
    for (int d = 0; d < info().doc_count; ++d) {
      Rng rng(seed + 17 + static_cast<uint64_t>(d) * 104729);
      DocBuilder b("products");
      b.Gold("products", "product.n");
      int items = 3 + static_cast<int>(rng.UniformInt(2));
      for (int i = 0; i < items; ++i) {
        Element product = b.Elem(b.root(), "product", "product.n");
        b.ElemWithVocab(product, "title", "title.name.n",
                        Pick(rng, kProducts));
        b.ElemWithVocab(product, "brand", "brand.n", Pick(rng, kProducts));
        b.ElemWithVocab(product, "category", "category.n",
                        Pick(rng, kCategories));
        b.ElemWithText(product, "price", "price.n",
                       StrFormat("%d", 5 + (int)rng.UniformInt(200)));
        b.ElemWithText(product, "weight", "weight.n",
                       StrFormat("%d", 1 + (int)rng.UniformInt(40)));
        b.ElemWithText(product, "ListPrice", nullptr,
                       StrFormat("%d", 9 + (int)rng.UniformInt(220)));
        b.Gold("list_price", "price.n");
        // Free-text description with ambiguous words.
        {
          const Vocab& v1 = Pick(rng, kProducts);
          const Vocab& v2 = Pick(rng, kCategories);
          b.ElemWithText(product, "description", "description.n",
                         std::string(v1.word) + " " + v2.word);
          if (v1.key) b.Gold(v1.word, v1.key);
          if (v2.key) b.Gold(v2.word, v2.key);
        }
        Element offers = b.Elem(product, "offers", "offer.n");
        int offer_count = 1 + static_cast<int>(rng.UniformInt(2));
        for (int o = 0; o < offer_count; ++o) {
          Element offer = b.Elem(offers, "offer", "offer.n");
          b.ElemWithText(offer, "price", "price.n",
                         StrFormat("%d", 4 + (int)rng.UniformInt(180)));
          b.ElemWithVocab(offer, "condition", "condition.n",
                          Pick(rng, kConditions));
          b.ElemWithText(offer, "stock", "stock.supply.n",
                         StrFormat("%d", (int)rng.UniformInt(50)));
        }
        Element reviews = b.Elem(product, "reviews", "review.critique.n");
        int review_count = 1 + static_cast<int>(rng.UniformInt(2));
        for (int r = 0; r < review_count; ++r) {
          Element review = b.Elem(reviews, "review", "review.critique.n");
          b.ElemWithText(review, "rating", "rating.n",
                         StrFormat("%d", 1 + (int)rng.UniformInt(5)));
          const Vocab& v = Pick(rng, kProducts);
          b.ElemWithText(review, "content", "message.n",
                         std::string(v.word));
          if (v.key) b.Gold(v.word, v.key);
        }
      }
      docs.push_back(b.Finish(StrFormat("amazon_%02d.xml", d)));
    }
    return docs;
  }
};

// ===================== Dataset 3: SIGMOD Record (Group 3) ================
class SigmodGenerator : public DatasetGenerator {
 public:
  DatasetInfo info() const override {
    return {3, "SIGMOD Record", "ProceedingsPage.dtd", 3, 6};
  }

  std::vector<GeneratedDocument> Generate(uint64_t seed) const override {
    const std::vector<Vocab> kTopics = {
        {"database", "database.n"},   {"information", "information.n"},
        {"software", "software.n"},   {"model", "model.version.n"},
        {"tree", "tree.diagram.n"},   {"language", nullptr},
        {"catalog", "catalog.n"},     {"index", nullptr},
    };
    const std::vector<Vocab> kAuthors = {
        {"james", "henry_james.n"},   {"london", "jack_london.n"},
        {"stewart", "potter_stewart.n"}, {"washington", "george_washington.n"},
    };
    std::vector<GeneratedDocument> docs;
    for (int d = 0; d < info().doc_count; ++d) {
      Rng rng(seed + 31 + static_cast<uint64_t>(d) * 92821);
      DocBuilder b("proceedings");
      b.Gold("proceedings", "proceedings.n");
      b.ElemWithText(b.root(), "conference", "conference.n",
                     "sigmod record");
      b.ElemWithText(b.root(), "volume", "volume.series.n",
                     StrFormat("%d", 10 + (int)rng.UniformInt(30)));
      b.ElemWithText(b.root(), "number", "number.identifier.n",
                     StrFormat("%d", 1 + (int)rng.UniformInt(4)));
      Element articles = b.Elem(b.root(), "articles", "article.n");
      int article_count = 2 + static_cast<int>(rng.UniformInt(2));
      for (int a = 0; a < article_count; ++a) {
        Element article = b.Elem(articles, "article", "article.n");
        {
          const Vocab& t1 = Pick(rng, kTopics);
          const Vocab& t2 = Pick(rng, kTopics);
          b.ElemWithText(article, "title", "title.name.n",
                         std::string(t1.word) + " " + t2.word);
          if (t1.key) b.Gold(t1.word, t1.key);
          if (t2.key) b.Gold(t2.word, t2.key);
        }
        Element authors = b.Elem(article, "authors", "writer.n");
        int author_count = 1 + static_cast<int>(rng.UniformInt(3));
        for (int au = 0; au < author_count; ++au) {
          b.ElemWithVocab(authors, "author", "writer.n",
                          Pick(rng, kAuthors));
        }
        b.ElemWithText(article, "initPage", nullptr,
                       StrFormat("%d", 1 + (int)rng.UniformInt(300)));
        b.ElemWithText(article, "endPage", nullptr,
                       StrFormat("%d", 301 + (int)rng.UniformInt(40)));
        b.Gold("init_page", "page.paper.n");
        b.Gold("end_page", "page.paper.n");
      }
      docs.push_back(b.Finish(StrFormat("sigmod_%02d.xml", d)));
    }
    return docs;
  }
};

// ===================== Dataset 4: IMDB movies (Group 3) ==================
class ImdbGenerator : public DatasetGenerator {
 public:
  DatasetInfo info() const override {
    return {4, "IMDB database", "movies.dtd", 3, 6};
  }

  std::vector<GeneratedDocument> Generate(uint64_t seed) const override {
    const std::vector<Vocab> kDirectors = {
        {"hitchcock", "alfred_hitchcock.n"},
    };
    const std::vector<Vocab> kActors = {
        {"kelly", "grace_kelly.n"},   {"stewart", "james_stewart.n"},
    };
    const std::vector<Vocab> kGenres = {
        {"mystery", "mystery.story.n"}, {"comedy", "comedy.n"},
        {"thriller", "thriller.n"},     {"musical", "musical.n"},
        {"documentary", "documentary.n"},
    };
    std::vector<GeneratedDocument> docs;
    for (int d = 0; d < info().doc_count; ++d) {
      Rng rng(seed + 47 + static_cast<uint64_t>(d) * 49999);
      DocBuilder b("movies");
      b.Gold("movies", "movie.n");
      Element movie = b.Elem(b.root(), "movie", "movie.n");
      b.Attribute(movie, "year",
                  StrFormat("%d", 1940 + (int)rng.UniformInt(60)));
      b.Gold("year", "year.calendar.n");
      b.ElemWithVocab(movie, "genre", "genre.kind.n", Pick(rng, kGenres));
      b.ElemWithVocab(movie, "director", "director.stage.n",
                      Pick(rng, kDirectors));
      Element cast = b.Elem(movie, "cast", "cast.actors.n");
      int stars = 1 + static_cast<int>(rng.UniformInt(2));
      for (int s = 0; s < stars; ++s) {
        b.ElemWithVocab(cast, "star", "star.performer.n",
                        Pick(rng, kActors));
      }
      const Vocab& g = Pick(rng, kGenres);
      b.ElemWithText(movie, "plot", "plot.story.n", std::string(g.word));
      b.Gold(g.word, g.key);
      docs.push_back(b.Finish(StrFormat("imdb_%02d.xml", d)));
    }
    return docs;
  }
};

// ===================== Dataset 5: Niagara bibliography (Group 3) =========
class BibGenerator : public DatasetGenerator {
 public:
  DatasetInfo info() const override {
    return {5, "Niagara collection", "bib.dtd", 3, 8};
  }

  std::vector<GeneratedDocument> Generate(uint64_t seed) const override {
    const std::vector<Vocab> kAuthors = {
        {"london", "jack_london.n"},  {"james", "henry_james.n"},
        {"shakespeare", "william_shakespeare.n"},
    };
    const std::vector<Vocab> kSubjects = {
        {"tragedy", "tragedy.n"},     {"mystery", "mystery.story.n"},
        {"poem", "poem.n"},           {"journal", "journal.periodical.n"},
    };
    std::vector<GeneratedDocument> docs;
    for (int d = 0; d < info().doc_count; ++d) {
      Rng rng(seed + 61 + static_cast<uint64_t>(d) * 15485867);
      DocBuilder b("bib");
      int books = 2 + static_cast<int>(rng.UniformInt(2));
      for (int book_idx = 0; book_idx < books; ++book_idx) {
        Element book = b.Elem(b.root(), "book", "book.n");
        b.ElemWithVocab(book, "title", "title.name.n",
                        Pick(rng, kSubjects));
        b.ElemWithVocab(book, "author", "writer.n", Pick(rng, kAuthors));
        b.ElemWithText(book, "publisher", "publisher.n", "house press");
        b.Gold("house", "firm.n");
        b.Gold("press", "press.n");
        b.ElemWithText(book, "year", "year.calendar.n",
                       StrFormat("%d", 1900 + (int)rng.UniformInt(100)));
        b.ElemWithText(book, "price", "price.n",
                       StrFormat("%d", 10 + (int)rng.UniformInt(90)));
        if (rng.Bernoulli(0.5)) {
          b.ElemWithVocab(book, "editor", "editor.n", Pick(rng, kAuthors));
        }
      }
      docs.push_back(b.Finish(StrFormat("bib_%02d.xml", d)));
    }
    return docs;
  }
};

// ===================== Dataset 6: W3Schools CD catalog (Group 4) =========
class CdCatalogGenerator : public DatasetGenerator {
 public:
  DatasetInfo info() const override {
    return {6, "W3Schools", "cd_catalog.dtd", 4, 4};
  }

  std::vector<GeneratedDocument> Generate(uint64_t seed) const override {
    const std::vector<Vocab> kArtists = {
        {"kelly", "gene_kelly.n"},    {"band", "band.music.n"},
        {"singer", "singer.n"},
    };
    const std::vector<Vocab> kCountries = {
        {"monaco", "monaco.n"},       {"usa", nullptr},
        {"uk", nullptr},
    };
    std::vector<GeneratedDocument> docs;
    for (int d = 0; d < info().doc_count; ++d) {
      Rng rng(seed + 71 + static_cast<uint64_t>(d) * 32452843);
      DocBuilder b("CATALOG");
      b.Gold("catalog", "catalog.n");
      int cds = 2 + static_cast<int>(rng.UniformInt(2));
      for (int c = 0; c < cds; ++c) {
        Element cd = b.Elem(b.root(), "CD", "cd.n");
        b.ElemWithText(cd, "TITLE", "title.name.n", "song album");
        b.Gold("song", "song.n");
        b.Gold("album", "album.n");
        b.ElemWithVocab(cd, "ARTIST", "artist.performer.n",
                        Pick(rng, kArtists));
        b.ElemWithText(cd, "COMPANY", "company.firm.n", "record house");
        b.Gold("record", "record.disc.n");
        b.Gold("house", "firm.n");
        b.ElemWithVocab(cd, "COUNTRY", "country.nation.n",
                        Pick(rng, kCountries));
        b.ElemWithText(cd, "PRICE", "price.n",
                       StrFormat("%d", 8 + (int)rng.UniformInt(14)));
        b.ElemWithText(cd, "YEAR", "year.calendar.n",
                       StrFormat("%d", 1960 + (int)rng.UniformInt(45)));
      }
      docs.push_back(b.Finish(StrFormat("cd_%02d.xml", d)));
    }
    return docs;
  }
};

// ===================== Dataset 7: W3Schools food menu (Group 4) ==========
class FoodMenuGenerator : public DatasetGenerator {
 public:
  DatasetInfo info() const override {
    return {7, "W3Schools", "food_menu.dtd", 4, 4};
  }

  std::vector<GeneratedDocument> Generate(uint64_t seed) const override {
    const std::vector<Vocab> kDishes = {
        {"waffle", "waffle.n"},       {"toast", "toast.n"},
        {"strawberry", "strawberry.n"}, {"bread", "bread.n"},
        {"egg", "egg.n"},
    };
    const std::vector<Vocab> kExtras = {
        {"cream", "cream.n"},         {"syrup", "syrup.n"},
        {"coffee", "coffee.n"},       {"juice", "juice.n"},
        {"berry", "berry.n"},
    };
    std::vector<GeneratedDocument> docs;
    for (int d = 0; d < info().doc_count; ++d) {
      Rng rng(seed + 83 + static_cast<uint64_t>(d) * 1299709);
      DocBuilder b("breakfast_menu");
      // The compound tag keeps a single label; its gold sense is the
      // semantic head (menu), matched against either member of the
      // assigned sense pair.
      b.Gold("breakfast_menu", "menu.n");
      int foods = 2 + static_cast<int>(rng.UniformInt(2));
      for (int f = 0; f < foods; ++f) {
        Element food = b.Elem(b.root(), "food", "solid_food.n");
        b.ElemWithVocab(food, "name", "name.n", Pick(rng, kDishes));
        b.ElemWithText(food, "price", "price.n",
                       StrFormat("%d", 4 + (int)rng.UniformInt(8)));
        {
          const Vocab& e1 = Pick(rng, kExtras);
          const Vocab& e2 = Pick(rng, kDishes);
          b.ElemWithText(food, "description", "description.n",
                         std::string(e2.word) + " with " + e1.word);
          b.Gold(e1.word, e1.key);
          b.Gold(e2.word, e2.key);
        }
        b.ElemWithText(food, "calories", "calorie.n",
                       StrFormat("%d", 200 + (int)rng.UniformInt(700)));
      }
      docs.push_back(b.Finish(StrFormat("food_%02d.xml", d)));
    }
    return docs;
  }
};

// ===================== Dataset 8: W3Schools plant catalog (Group 4) ======
class PlantCatalogGenerator : public DatasetGenerator {
 public:
  DatasetInfo info() const override {
    return {8, "W3Schools", "plant_catalog.dtd", 4, 4};
  }

  std::vector<GeneratedDocument> Generate(uint64_t seed) const override {
    const std::vector<Vocab> kPlants = {
        {"columbine", "columbine.n"}, {"marigold", "marigold.n"},
        {"anemone", "anemone.n"},
    };
    const std::vector<Vocab> kLight = {
        {"sun", "sun.n"},             {"shade", "shade.n"},
    };
    std::vector<GeneratedDocument> docs;
    for (int d = 0; d < info().doc_count; ++d) {
      Rng rng(seed + 97 + static_cast<uint64_t>(d) * 179426549);
      DocBuilder b("CATALOG");
      b.Gold("catalog", "catalog.n");
      int plants = 2 + static_cast<int>(rng.UniformInt(1));
      for (int p = 0; p < plants; ++p) {
        Element plant = b.Elem(b.root(), "PLANT", "plant.flora.n");
        b.ElemWithVocab(plant, "COMMON", "common.vernacular.a",
                        Pick(rng, kPlants));
        b.ElemWithVocab(plant, "BOTANICAL", "botanic.a",
                        Pick(rng, kPlants));
        b.ElemWithText(plant, "ZONE", "zone.climate.n",
                       StrFormat("%d", 1 + (int)rng.UniformInt(8)));
        b.ElemWithVocab(plant, "LIGHT", "light.n", Pick(rng, kLight));
        b.ElemWithText(plant, "PRICE", "price.n",
                       StrFormat("%d", 2 + (int)rng.UniformInt(10)));
        b.ElemWithText(plant, "AVAILABILITY", "availability.n",
                       StrFormat("%d", (int)rng.UniformInt(2) ? 1 : 0));
      }
      docs.push_back(b.Finish(StrFormat("plant_%02d.xml", d)));
    }
    return docs;
  }
};

// ===================== Dataset 9: Niagara personnel (Group 4) ============
class PersonnelGenerator : public DatasetGenerator {
 public:
  DatasetInfo info() const override {
    return {9, "Niagara collection", "personnel.dtd", 4, 4};
  }

  std::vector<GeneratedDocument> Generate(uint64_t seed) const override {
    const std::vector<Vocab> kCities = {
        {"washington", "washington.city.n"}, {"paris", "paris.city.n"},
        {"london", "london.city.n"},
    };
    const std::vector<Vocab> kStates = {
        {"virginia", "virginia.state.n"}, {"texas", "texas.state.n"},
        {"california", "california.state.n"},
        {"washington", "washington.state.n"},
    };
    const std::vector<Vocab> kRoles = {
        {"manager", "manager.n"},     {"secretary", "secretary.n"},
        {"engineer", "engineer.n"},   {"programmer", "programmer.n"},
    };
    std::vector<GeneratedDocument> docs;
    for (int d = 0; d < info().doc_count; ++d) {
      Rng rng(seed + 101 + static_cast<uint64_t>(d) * 982451653);
      DocBuilder b("personnel");
      b.Gold("personnel", "personnel.n");
      int persons = 2 + static_cast<int>(rng.UniformInt(2));
      for (int p = 0; p < persons; ++p) {
        Element person = b.Elem(b.root(), "person", "person.n");
        Element name = b.Elem(person, "name", "name.n");
        // <given>/<family> per personnel.dtd: "given" has no lexicon
        // entry (unresolvable for every system), "family" only the
        // household sense, which is what an annotator limited to the
        // lexicon inventory would pick.
        b.ElemWithText(name, "given", nullptr, "grace");
        b.ElemWithText(name, "family", "family.n", "kelly");
        b.ElemWithText(person, "email", "email.n",
                       StrFormat("user%d at example dot com",
                                 (int)rng.UniformInt(100)));
        Element address = b.Elem(person, "address", "address.location.n");
        b.ElemWithText(address, "street", "street.n",
                       StrFormat("%d main", 1 + (int)rng.UniformInt(900)));
        b.ElemWithVocab(address, "city", "city.n", Pick(rng, kCities));
        b.ElemWithVocab(address, "state", "state.province.n",
                        Pick(rng, kStates));
        b.ElemWithText(address, "zip", "zip_code.n",
                       StrFormat("%05d", (int)rng.UniformInt(99999)));
        b.ElemWithVocab(person, "office", "office.position.n",
                        Pick(rng, kRoles));
      }
      docs.push_back(b.Finish(StrFormat("personnel_%02d.xml", d)));
    }
    return docs;
  }
};

// ===================== Dataset 10: Niagara club (Group 4) ================
class ClubGenerator : public DatasetGenerator {
 public:
  DatasetInfo info() const override {
    return {10, "Niagara collection", "club.dtd", 4, 4};
  }

  std::vector<GeneratedDocument> Generate(uint64_t seed) const override {
    const std::vector<Vocab> kSports = {
        {"golf", "golf.n"},           {"tennis", "tennis.n"},
        {"chess", "chess.n"},
    };
    const std::vector<Vocab> kCities = {
        {"london", "london.city.n"},  {"paris", "paris.city.n"},
    };
    std::vector<GeneratedDocument> docs;
    for (int d = 0; d < info().doc_count; ++d) {
      Rng rng(seed + 113 + static_cast<uint64_t>(d) * 217645199);
      DocBuilder b("club");
      b.Gold("club", "club.association.n");
      b.ElemWithVocab(b.root(), "name", "name.n", Pick(rng, kSports));
      b.ElemWithVocab(b.root(), "location", "location.n",
                      Pick(rng, kCities));
      b.ElemWithVocab(b.root(), "sport", "sport.n", Pick(rng, kSports));
      b.ElemWithText(b.root(), "president", "president.chair.n",
                     "stewart");
      b.Gold("stewart", "jackie_stewart.n");
      Element members = b.Elem(b.root(), "members", "member.n");
      int member_count = 2 + static_cast<int>(rng.UniformInt(3));
      for (int m = 0; m < member_count; ++m) {
        Element member = b.Elem(members, "member", "member.n");
        b.ElemWithText(member, "name", "name.n",
                       StrFormat("member%d", m));
        b.ElemWithVocab(member, "hobby", "hobby.n", Pick(rng, kSports));
        b.ElemWithText(member, "dues", "dues.n",
                       StrFormat("%d", 20 + (int)rng.UniformInt(100)));
      }
      docs.push_back(b.Finish(StrFormat("club_%02d.xml", d)));
    }
    return docs;
  }
};

// ===================== Giant documents (gen-corpus --giant) ==============

/// Vocabulary shared by the giant profiles: every word resolves in the
/// mini-WordNet, so tag and token interning does real lexicon work.
const std::vector<Vocab>& GiantWords() {
  static const std::vector<Vocab>* kWords = new std::vector<Vocab>{
      {"star", "star.celestial.n"},  {"light", "light.n"},
      {"sun", "sun.n"},              {"shade", "shade.n"},
      {"king", "king.n"},            {"prince", "prince.n"},
      {"word", "word.n"},            {"name", "name.n"},
      {"verse", "verse.line.n"},     {"poem", "poem.n"},
      {"club", "club.golf.n"},       {"record", "record.disc.n"},
      {"book", "book.n"},            {"album", "album.n"},
      {"music", "music.n.art"},      {"sport", "sport.n"},
      {"game", "game.n"},            {"food", "food.n"},
      {"title", "title.name.n"},     {"house", "firm.n"},
      {"press", "press.n"},          {"member", "member.limb.n"},
      {"city", "city.n"},            {"tree", "tree.diagram.n"},
  };
  return *kWords;
}

/// Appends `words` space-separated vocabulary words.
void AppendGiantText(std::string& out, Rng& rng, int words) {
  const std::vector<Vocab>& pool = GiantWords();
  for (int w = 0; w < words; ++w) {
    if (w != 0) out += ' ';
    out += pool[rng.UniformInt(pool.size())].word;
  }
}

/// One deep block: an element spine `depth` levels tall with a few
/// text leaves at the bottom. `depth` is capped well under the default
/// ParseLimits::max_depth = 256 budget (the root adds one more level).
void AppendDeepBlock(std::string& out, Rng& rng) {
  const int depth = 32 + static_cast<int>(rng.UniformInt(32));
  for (int i = 0; i < depth; ++i) {
    out += (i % 2 == 0) ? "<section>" : "<chapter>";
  }
  const int lines = 3 + static_cast<int>(rng.UniformInt(4));
  for (int l = 0; l < lines; ++l) {
    out += "<line>";
    AppendGiantText(out, rng, 3 + static_cast<int>(rng.UniformInt(4)));
    out += "</line>";
  }
  for (int i = depth - 1; i >= 0; --i) {
    out += (i % 2 == 0) ? "</section>" : "</chapter>";
  }
  out += '\n';
}

/// One wide block: a flat fan of sibling records with attributes.
void AppendWideBlock(std::string& out, Rng& rng) {
  const std::vector<Vocab>& pool = GiantWords();
  out += "<records>";
  const int fan = 48 + static_cast<int>(rng.UniformInt(48));
  for (int r = 0; r < fan; ++r) {
    const Vocab& kind = pool[rng.UniformInt(pool.size())];
    out += StrFormat("<record id=\"%d\" kind=\"%s\"><title>",
                     static_cast<int>(rng.UniformInt(1 << 20)), kind.word);
    AppendGiantText(out, rng, 2 + static_cast<int>(rng.UniformInt(3)));
    out += StrFormat("</title><price>%d</price></record>",
                     1 + static_cast<int>(rng.UniformInt(500)));
  }
  out += "</records>\n";
}

}  // namespace

std::vector<GeneratedDocument> GiantDocuments(int count,
                                              size_t target_bytes,
                                              uint64_t seed) {
  std::vector<GeneratedDocument> docs;
  docs.reserve(static_cast<size_t>(count < 0 ? 0 : count));
  for (int d = 0; d < count; ++d) {
    Rng rng(seed + 131 + static_cast<uint64_t>(d) * 6700417);
    GeneratedDocument doc;
    doc.name = StrFormat("giant_%03d.xml", d);
    std::string& xml = doc.xml;
    xml.reserve(target_bytes + (64u << 10));
    xml += "<?xml version=\"1.0\"?>\n<library>\n";
    // Even documents lead with deep spines, odd with wide fans; both
    // profiles interleave 3:1 so every giant doc exercises recursion
    // depth and sibling fan-out together.
    const bool deep_major = (d % 2 == 0);
    size_t block = 0;
    while (xml.size() < target_bytes) {
      const bool deep = (block++ % 4 != 3) == deep_major;
      if (deep) {
        AppendDeepBlock(xml, rng);
      } else {
        AppendWideBlock(xml, rng);
      }
    }
    xml += "</library>\n";
    docs.push_back(std::move(doc));
  }
  return docs;
}

const std::vector<const DatasetGenerator*>& AllDatasets() {
  static const std::vector<const DatasetGenerator*>* kAll = [] {
    auto* v = new std::vector<const DatasetGenerator*>();
    v->push_back(new ShakespeareGenerator());
    v->push_back(new AmazonGenerator());
    v->push_back(new SigmodGenerator());
    v->push_back(new ImdbGenerator());
    v->push_back(new BibGenerator());
    v->push_back(new CdCatalogGenerator());
    v->push_back(new FoodMenuGenerator());
    v->push_back(new PlantCatalogGenerator());
    v->push_back(new PersonnelGenerator());
    v->push_back(new ClubGenerator());
    return v;
  }();
  return *kAll;
}

std::vector<GeneratedDocument> Figure1Documents() {
  std::vector<GeneratedDocument> docs;
  {
    GeneratedDocument doc;
    doc.name = "figure1_doc1.xml";
    doc.xml = R"(<?xml version="1.0"?>
<Films>
  <Picture title="Rear Window">
    <Director>Hitchcock</Director>
    <Year>1954</Year>
    <Genre>mystery</Genre>
    <Cast>
      <Star>Stewart</Star>
      <Star>Kelly</Star>
    </Cast>
    <Plot>A wheelchair bound photographer spies on his neighbors</Plot>
  </Picture>
</Films>)";
    doc.gold = {
        {"film", "movie.n"},          {"picture", "movie.n"},
        {"director", "director.stage.n"}, {"year", "year.calendar.n"},
        {"genre", "genre.kind.n"},    {"cast", "cast.actors.n"},
        {"star", "star.performer.n"}, {"plot", "plot.story.n"},
        {"stewart", "james_stewart.n"}, {"kelly", "grace_kelly.n"},
        {"hitchcock", "alfred_hitchcock.n"}, {"mystery", "mystery.story.n"},
        {"title", "title.name.n"},    {"window", "window.opening.n"},
    };
    docs.push_back(std::move(doc));
  }
  {
    GeneratedDocument doc;
    doc.name = "figure1_doc2.xml";
    doc.xml = R"(<?xml version="1.0"?>
<movies>
  <movie year="1954">
    <name>Rear Window</name>
    <directed_by>Alfred Hitchcock</directed_by>
    <actors>
      <actor>
        <FirstName>Grace</FirstName>
        <LastName>Kelly</LastName>
      </actor>
      <actor>
        <FirstName>James</FirstName>
        <LastName>Stewart</LastName>
      </actor>
    </actors>
  </movie>
</movies>)";
    doc.gold = {
        {"movie", "movie.n"},         {"year", "year.calendar.n"},
        {"name", "name.n"},           {"actor", "actor.n"},
        {"first_name", "first_name.n"}, {"last_name", "last_name.n"},
        {"kelly", "grace_kelly.n"},   {"stewart", "james_stewart.n"},
        {"hitchcock", "alfred_hitchcock.n"},
        {"directed_by", "direct.film.v"},
    };
    docs.push_back(std::move(doc));
  }
  return docs;
}

}  // namespace xsdf::datasets
