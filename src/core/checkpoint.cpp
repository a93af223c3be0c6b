#include "core/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string_view>
#include <type_traits>

#include "common/strutil.hpp"
#include "core/decision_io.hpp"

namespace dampi::core {

namespace {

/// FNV-1a over the pinned initial schedule so the fingerprint stays one
/// line regardless of how many decisions were pinned.
std::uint64_t hash_schedule(const Schedule& schedule) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [key, src] : schedule.forced) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(key.rank), key.nd_index,
          static_cast<std::uint64_t>(src)}) {
      h ^= v;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// One-line-safe text encoding shared with the dist wire protocol.
using dampi::escape_line;
using dampi::unescape_line;

/// The remainder of `line` after the leading keyword and one space.
std::string rest_of_line(std::string_view line, std::size_t keyword_len) {
  if (line.size() <= keyword_len + 1) return "";
  return std::string(line.substr(keyword_len + 1));
}

// --- Writing -----------------------------------------------------------------
//
// A wide journal holds hundreds of thousands of numbers (a 512-rank
// frontier carries a vector clock per frame), so the writer formats
// decimal digits with std::to_chars instead of into temporaries, and
// lists go through a stack buffer appended once per chunk rather than
// once per number; the text is exactly what "%d"/"%llu"/"%zu" print.

/// " <value>": the unit every field after a line's keyword is made of.
template <typename T>
void put_field(std::string& out, T value) {
  char buf[24];
  buf[0] = ' ';
  const auto res = std::to_chars(buf + 1, buf + sizeof(buf), value);
  out.append(buf, res.ptr);
}

/// " <count> v0 .. vN-1", formatted into a 2 KB stack buffer that is
/// flushed whenever it might not hold one more field.
template <typename Range>
void put_list(std::string& out, const Range& values) {
  constexpr std::size_t kChunk = 2048;
  constexpr std::ptrdiff_t kMaxField = 21;  // ' ' + 20 digits (or sign+10)
  char buf[kChunk];
  char* const end = buf + kChunk;
  buf[0] = ' ';
  char* p = std::to_chars(buf + 1, end, values.size()).ptr;
  for (const auto v : values) {
    if (end - p < kMaxField) {
      out.append(buf, p);
      p = buf;
    }
    *p++ = ' ';
    p = std::to_chars(p, end, v).ptr;
  }
  out.append(buf, p);
}

/// One frame line under `keyword` ("frame" for the live stack, "pframe"
/// for harvested pending-sleep frames). The fixed prefix is followed by
/// optional single-letter trailers, written only when non-default so
/// pre-POR journals and POR-off journals keep their exact shape:
///   e 1                 coordinator-owned decision site
///   z N r0..rN-1        sleep set
///   f comm tag          decision footprint channel
///   v N c0..cN-1        vector timestamp at epoch open
void serialize_frame(const DfsFrame& frame, const char* keyword,
                     std::string& out) {
  out += keyword;
  put_field(out, frame.key.rank);
  put_field(out, frame.key.nd_index);
  put_field(out, frame.lc);
  put_field(out, frame.taken_src);
  put_field(out, frame.record_alts ? 1 : 0);
  put_field(out, frame.mix_budget);
  out += " u";
  put_list(out, frame.untried);
  out += " s";
  put_list(out, frame.seen);
  if (frame.escape_alts) out += " e 1";
  if (!frame.sleep.empty()) {
    out += " z";
    put_list(out, frame.sleep);
  }
  if (frame.comm != mpism::kCommWorld || frame.tag != mpism::kAnyTag) {
    out += " f";
    put_field(out, frame.comm);
    put_field(out, frame.tag);
  }
  if (!frame.vc.empty()) {
    out += " v";
    put_list(out, frame.vc);
  }
  out += '\n';
}

// --- Reading -----------------------------------------------------------------

/// Cursor over one line with the extraction grammar of an istringstream
/// (`ls >> x`): skip whitespace, then take the next token, or the longest
/// decimal prefix with an optional sign. As with the stream, an unsigned
/// field accepts '-' and wraps, and an out-of-range value fails.
class Fields {
 public:
  explicit Fields(std::string_view line) : s_(line) {}

  bool word(std::string_view* out) {
    skip_space();
    std::size_t end = pos_;
    while (end < s_.size() && !is_space(s_[end])) ++end;
    if (end == pos_) return false;
    *out = s_.substr(pos_, end - pos_);
    pos_ = end;
    return true;
  }

  template <typename T>
  bool num(T* out) {
    skip_space();
    const char* p = s_.data() + pos_;
    const char* const end = s_.data() + s_.size();
    bool negative = false;
    if (p != end && (*p == '+' || *p == '-')) negative = *p++ == '-';
    std::uint64_t magnitude = 0;
    const auto res = std::from_chars(p, end, magnitude);
    if (res.ec != std::errc{}) return false;
    using U = std::make_unsigned_t<T>;
    std::uint64_t limit = std::numeric_limits<T>::max();
    if (std::is_signed_v<T> && negative) ++limit;
    if (magnitude > limit) return false;
    // Two's-complement negation: -magnitude for a signed field, the
    // stream's wrap-around for an unsigned one.
    const U bits = static_cast<U>(negative ? 0 - magnitude : magnitude);
    *out = static_cast<T>(bits);
    pos_ = static_cast<std::size_t>(res.ptr - s_.data());
    return true;
  }

  /// What `std::getline(ls, rest)` returns: everything not yet consumed.
  std::string_view rest() const { return s_.substr(pos_); }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  }
  void skip_space() {
    while (pos_ < s_.size() && is_space(s_[pos_])) ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Reads " <count> v0 .. vN-1" into `add`; false (with `truncated` as the
/// error) when an element is missing.
template <typename T, typename Add>
bool parse_elements(Fields& ls, std::size_t count, Add add,
                    const char* truncated, std::string* error) {
  for (std::size_t i = 0; i < count; ++i) {
    T value{};
    if (!ls.num(&value)) {
      *error = truncated;
      return false;
    }
    add(value);
  }
  return true;
}

/// Inverse of serialize_frame (past the keyword). Absent trailers parse
/// to their defaults, so older journals load unchanged.
bool parse_frame(Fields& ls, DfsFrame* frame, std::string* error) {
  int record_alts = 0;
  std::string_view marker;
  std::size_t count = 0;
  if (!(ls.num(&frame->key.rank) && ls.num(&frame->key.nd_index) &&
        ls.num(&frame->lc) && ls.num(&frame->taken_src) &&
        ls.num(&record_alts) && ls.num(&frame->mix_budget) &&
        ls.word(&marker) && ls.num(&count)) ||
      marker != "u") {
    *error = "bad frame line";
    return false;
  }
  frame->record_alts = record_alts != 0;
  // Capped by the line length: a corrupt count must fail as a truncated
  // list, not as an allocation.
  frame->untried.reserve(std::min(count, ls.rest().size()));
  if (!parse_elements<mpism::Rank>(
          ls, count, [&](mpism::Rank r) { frame->untried.push_back(r); },
          "truncated untried list", error)) {
    return false;
  }
  if (!(ls.word(&marker) && ls.num(&count)) || marker != "s") {
    *error = "bad seen list";
    return false;
  }
  if (!parse_elements<mpism::Rank>(
          ls, count, [&](mpism::Rank r) { frame->seen.insert(r); },
          "truncated seen list", error)) {
    return false;
  }
  while (ls.word(&marker)) {
    if (marker == "e") {
      int escape = 0;
      if (!ls.num(&escape)) {
        *error = "bad frame trailer";
        return false;
      }
      frame->escape_alts = escape != 0;
    } else if (marker == "z") {
      if (!ls.num(&count)) {
        *error = "bad sleep list";
        return false;
      }
      if (!parse_elements<mpism::Rank>(
              ls, count, [&](mpism::Rank r) { frame->sleep.insert(r); },
              "truncated sleep list", error)) {
        return false;
      }
    } else if (marker == "f") {
      if (!(ls.num(&frame->comm) && ls.num(&frame->tag))) {
        *error = "bad footprint trailer";
        return false;
      }
    } else if (marker == "v") {
      if (!ls.num(&count)) {
        *error = "bad vector-clock trailer";
        return false;
      }
      frame->vc.reserve(std::min(count, ls.rest().size()));
      if (!parse_elements<std::uint64_t>(
              ls, count, [&](std::uint64_t c) { frame->vc.push_back(c); },
              "truncated vector-clock trailer", error)) {
        return false;
      }
    } else {
      *error = "bad frame trailer";
      return false;
    }
  }
  return true;
}

}  // namespace

std::string options_fingerprint(const ExplorerOptions& options) {
  std::string mix = "none";
  if (options.mixing_bound.has_value()) {
    mix = strfmt("%d", *options.mixing_bound);
  }
  // `unsafe=1` and `policy=0 pseed=1` are constants (the §V monitor is
  // always on; a wildcard match takes the lowest source). They stay in
  // the text so journals written by older builds still resume and their
  // workers still pass the HELLO check.
  std::string fp = strfmt(
      "nprocs=%d clock=%d transport=%d mix=%s loopabs=%d unsafe=1 "
      "autoloop=%d defsync=%d sched=%s schedseed=%llu por=%s policy=0 "
      "pseed=1 init=%016llx",
      options.nprocs, static_cast<int>(options.clock_mode),
      static_cast<int>(options.transport), mix.c_str(),
      options.loop_abstraction ? 1 : 0, options.auto_loop_threshold,
      options.deferred_clock_sync ? 1 : 0,
      mpism::sched_spec(options.sched).c_str(),
      static_cast<unsigned long long>(options.sched.seed),
      por_spec(options.por),
      static_cast<unsigned long long>(hash_schedule(options.initial_schedule)));
  fp += " fault=";
  fp += options.fault ? fault_spec(*options.fault) : "none";
  if (!options.checkpoint_tag.empty()) {
    fp += " tag=" + options.checkpoint_tag;
  }
  return fp;
}

std::string serialize_checkpoint(const Checkpoint& checkpoint) {
  // No up-front reserve: a size bound must assume 20 digits per number
  // and over-allocates about 5x on real journals, for about 4% less
  // time than the string's own geometric growth.
  std::string out = kCheckpointHeader;
  out += '\n';
  out += "options ";
  out += checkpoint.fingerprint;
  out += "\ninterleavings";
  put_field(out, checkpoint.interleavings);
  out += "\ncounters";
  put_field(out, checkpoint.retries);
  put_field(out, checkpoint.timeouts);
  put_field(out, checkpoint.quarantined);
  put_field(out, checkpoint.divergences);
  put_field(out, checkpoint.prefix_mismatches);
  out += '\n';
  if (!checkpoint.fault_fires.empty()) {
    out += "ffires";
    put_list(out, checkpoint.fault_fires);
    out += '\n';
  }
  for (const DfsFrame& frame : checkpoint.frames) {
    serialize_frame(frame, "frame", out);
  }
  for (const DfsFrame& frame : checkpoint.pending_sleep) {
    serialize_frame(frame, "pframe", out);
  }
  for (const BugRecord& bug : checkpoint.bugs) {
    out += "bug";
    put_field(out, static_cast<int>(bug.kind));
    put_field(out, bug.interleaving);
    out += '\n';
    for (const mpism::ErrorInfo& err : bug.errors) {
      out += "berr";
      put_field(out, err.rank);
      out += ' ';
      out += escape_line(err.message);
      out += '\n';
    }
    out += "bdetail ";
    out += escape_line(bug.deadlock_detail);
    out += '\n';
    for (const auto& [key, src] : bug.schedule.forced) {
      out += "bdec";
      put_field(out, key.rank);
      put_field(out, key.nd_index);
      put_field(out, src);
      out += '\n';
    }
  }
  for (const std::string& alert : checkpoint.unsafe_alerts) {
    out += "alert ";
    out += escape_line(alert);
    out += '\n';
  }
  out += "end\n";
  return out;
}

std::optional<Checkpoint> parse_checkpoint(
    const std::string& text, const std::string& expected_fingerprint,
    std::string* error) {
  auto fail = [error](std::string message) -> std::optional<Checkpoint> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  Checkpoint cp;
  int line_no = 0;
  bool saw_header = false;
  bool saw_options = false;
  bool saw_end = false;
  BugRecord* open_bug = nullptr;

  // Line views in std::getline's sense: split at '\n', and a final
  // newline does not start another line.
  for (std::size_t at = 0; at < text.size();) {
    std::size_t eol = text.find('\n', at);
    if (eol == std::string::npos) eol = text.size();
    std::string_view line(text.data() + at, eol - at);
    at = eol + 1;
    ++line_no;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    if (line.empty()) continue;
    if (saw_end) {
      return fail(strfmt("line %d: content after 'end' trailer", line_no));
    }
    // Same header discipline as decision files: the version line must be
    // the first non-blank line, or this is not a checkpoint at all.
    if (!saw_header) {
      if (line != kCheckpointHeader) {
        return fail(
            strfmt("line %d: first non-blank line must be the '%s' header",
                   line_no, kCheckpointHeader));
      }
      saw_header = true;
      continue;
    }
    if (line[0] == '#') continue;

    Fields ls(line);
    std::string_view keyword;
    ls.word(&keyword);

    if (keyword == "options") {
      cp.fingerprint = rest_of_line(line, keyword.size());
      if (!expected_fingerprint.empty() &&
          cp.fingerprint != expected_fingerprint) {
        return fail(strfmt(
            "options fingerprint mismatch — checkpoint was written by a "
            "different configuration\n  checkpoint: %s\n  current:    %s",
            cp.fingerprint.c_str(), expected_fingerprint.c_str()));
      }
      saw_options = true;
    } else if (keyword == "interleavings") {
      if (!ls.num(&cp.interleavings)) {
        return fail(strfmt("line %d: bad interleavings count", line_no));
      }
    } else if (keyword == "counters") {
      if (!(ls.num(&cp.retries) && ls.num(&cp.timeouts) &&
            ls.num(&cp.quarantined) && ls.num(&cp.divergences) &&
            ls.num(&cp.prefix_mismatches))) {
        return fail(strfmt("line %d: bad counters line", line_no));
      }
    } else if (keyword == "ffires") {
      std::size_t count = 0;
      if (!ls.num(&count)) {
        return fail(strfmt("line %d: bad ffires line", line_no));
      }
      cp.fault_fires.reserve(std::min(count, ls.rest().size()));
      for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t fires = 0;
        if (!ls.num(&fires)) {
          return fail(strfmt("line %d: truncated ffires line", line_no));
        }
        cp.fault_fires.push_back(fires);
      }
    } else if (keyword == "frame" || keyword == "pframe") {
      DfsFrame frame;
      std::string frame_error;
      if (!parse_frame(ls, &frame, &frame_error)) {
        return fail(strfmt("line %d: %s", line_no, frame_error.c_str()));
      }
      (keyword == "frame" ? cp.frames : cp.pending_sleep)
          .push_back(std::move(frame));
      open_bug = nullptr;
    } else if (keyword == "bug") {
      BugRecord bug;
      int kind = 0;
      if (!(ls.num(&kind) && ls.num(&bug.interleaving)) || kind < 0 ||
          kind > static_cast<int>(BugRecord::Kind::kHang)) {
        return fail(strfmt("line %d: bad bug line", line_no));
      }
      bug.kind = static_cast<BugRecord::Kind>(kind);
      cp.bugs.push_back(std::move(bug));
      open_bug = &cp.bugs.back();
    } else if (keyword == "berr") {
      mpism::ErrorInfo err;
      if (open_bug == nullptr || !ls.num(&err.rank)) {
        return fail(strfmt("line %d: berr outside a bug block", line_no));
      }
      std::string_view rest = ls.rest();
      if (!rest.empty() && rest[0] == ' ') rest.remove_prefix(1);
      err.message = unescape_line(std::string(rest));
      open_bug->errors.push_back(std::move(err));
    } else if (keyword == "bdetail") {
      if (open_bug == nullptr) {
        return fail(strfmt("line %d: bdetail outside a bug block", line_no));
      }
      open_bug->deadlock_detail = unescape_line(rest_of_line(line, keyword.size()));
    } else if (keyword == "bdec") {
      EpochKey key;
      mpism::Rank src = -1;
      if (open_bug == nullptr ||
          !(ls.num(&key.rank) && ls.num(&key.nd_index) && ls.num(&src))) {
        return fail(strfmt("line %d: bdec outside a bug block", line_no));
      }
      open_bug->schedule.forced[key] = src;
    } else if (keyword == "alert") {
      cp.unsafe_alerts.push_back(unescape_line(rest_of_line(line, keyword.size())));
      open_bug = nullptr;
    } else if (keyword == "end") {
      saw_end = true;
    } else {
      return fail(strfmt("line %d: unknown keyword '%s'", line_no,
                         std::string(keyword).c_str()));
    }
  }
  if (!saw_header) {
    return fail(strfmt("missing '%s' header", kCheckpointHeader));
  }
  if (!saw_options) {
    return fail("missing 'options' fingerprint line");
  }
  if (!saw_end) {
    return fail("truncated checkpoint (missing 'end' trailer)");
  }
  return cp;
}

bool save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  const std::string text = serialize_checkpoint(checkpoint);
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  if (std::fclose(out) != 0 || !written) return false;
  // rename(2) is atomic within a filesystem: readers see either the old
  // complete checkpoint or the new one, never a torn write.
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<Checkpoint> load_checkpoint(
    const std::string& path, const std::string& expected_fingerprint,
    std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return parse_checkpoint(text, expected_fingerprint, error);
}

}  // namespace dampi::core
