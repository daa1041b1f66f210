#include "common/record_reader.hpp"

#include <cstring>

namespace tscclock {

LineReader::LineReader(std::istream& in)
    : in_(in), window_(kLineReadWindow, '\0') {}

bool LineReader::next_line(std::string_view& line) {
  const auto first = [](std::string_view unread) { return unread.find('\n'); };
  if (!take(first, line)) return false;
  line.remove_suffix(1);
  return true;
}

bool LineReader::next_lines(std::string_view& lines) {
  const auto last = [](std::string_view unread) { return unread.rfind('\n'); };
  return take(last, lines);
}

/// Hand out the window from the next line through the newline `find` picks
/// among the bytes not yet scanned, refilling until it picks one or the
/// input ends.
template <typename Find>
bool LineReader::take(const Find& find, std::string_view& out) {
  for (;;) {
    const std::size_t newline =
        find(std::string_view(window_.data() + scanned_, filled_ - scanned_));
    if (newline != std::string_view::npos) {
      const std::size_t end = scanned_ + newline + 1;
      out = std::string_view(window_.data() + begin_, end - begin_);
      begin_ = scanned_ = end;
      return true;
    }
    scanned_ = filled_;
    if (at_end_) {
      torn_ = begin_ < filled_;
      return false;
    }
    refill();
  }
}

/// Move the unfinished line to the front of the window, double the window
/// if that line fills it, and read to the window's end.
void LineReader::refill() {
  const std::size_t partial = filled_ - begin_;
  std::memmove(window_.data(), window_.data() + begin_, partial);
  discarded_ += begin_;
  begin_ = 0;
  scanned_ = filled_ = partial;
  if (filled_ == window_.size()) window_.resize(2 * window_.size());
  in_.read(window_.data() + filled_,
           static_cast<std::streamsize>(window_.size() - filled_));
  filled_ += static_cast<std::size_t>(in_.gcount());
  at_end_ = filled_ < window_.size();  // a short read: end of input
}

}  // namespace tscclock
