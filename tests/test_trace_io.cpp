// The trace file format (trace/trace_io.hpp): bit-identical round trips
// through the finite hexfloat edge cases (−0.0, denormals, extremes), the
// spelling of ±inf and NaN on write and their refusal on read, the per-mode
// field-count contract, torn tails and version skew, end-marker
// completeness witnessing, and the warning (exit-1) taxonomy. Also pins the
// two writers' flush behaviour: write_trace's buffered export is
// byte-identical to the streaming TraceWriter, which flushes every record
// before close(). The pooled parse reads the same samples, warnings and
// earliest error as the serial one, wherever the faults sit against its
// window and chunk edges, and a trace cell scores the same on any pool.
#include "trace/trace_io.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "common/time_types.hpp"
#include "harness/estimator_spec.hpp"
#include "harness/sinks.hpp"
#include "sim/scenario.hpp"
#include "sweep/result_io.hpp"
#include "sweep/sweep.hpp"

namespace tscclock::trace {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

fs::path temp_path(const std::string& name) {
  return fs::temp_directory_path() / ("tscclock_trace_io_" + name);
}

/// Bitwise double equality: the round-trip contract is representation
/// identity, which operator== cannot express for NaN or −0.0.
bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

TraceMeta reference_meta() {
  TraceMeta meta;
  meta.mode = harness::GroundTruthMode::kReference;
  meta.nominal_period = 1.000000013e-9;
  meta.poll_period = 16.0;
  meta.client_id = 3;
  meta.label = "gnarly \t tab \n newline \\ backslash";
  return meta;
}

harness::ReplaySample make_sample(std::size_t index, TscCount ta,
                                  Seconds tb) {
  harness::ReplaySample s;
  s.index = index;
  s.client_id = 3;
  s.raw = {ta, tb, tb + 1e-3, ta + 1000};
  s.tf_counts_corrected = ta + 990;
  s.t_day = tb / duration::kDay;
  s.ref_available = true;
  s.tg = tb + 2e-3;
  s.truth_ta = tb - 5e-4;
  s.truth_tb = tb + 1e-6;
  return s;
}

/// A reference trace exercising the serialization's hard cases in the
/// unconstrained double columns (te, tg, truth_ta, truth_tb) while Ta/Tb
/// stay monotone so the file reads back warning-free. With `non_finite` the
/// cases include ±inf and NaN, which the writer spells but read_trace
/// refuses; without it they are the finite extremes instead.
harness::ReplayTrace gnarly_trace(bool non_finite = true) {
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  const double big = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  const double gnarly[] = {-0.0,
                           std::numeric_limits<double>::denorm_min(),
                           non_finite ? inf : big,
                           non_finite ? -inf : -big,
                           non_finite ? std::numeric_limits<double>::quiet_NaN()
                                      : std::numeric_limits<double>::min(),
                           0.1};
  for (std::size_t i = 0; i < 6; ++i) {
    harness::ReplaySample s = make_sample(i, 1000 + 100 * i, 16.0 * (i + 1));
    s.tg = gnarly[i];
    s.truth_ta = gnarly[(i + 1) % 6];
    s.truth_tb = gnarly[(i + 2) % 6];
    s.raw.te = gnarly[(i + 3) % 6];
    trace.samples.push_back(s);
  }
  // A lost record mid-stream: no observables, flags only.
  harness::ReplaySample lost;
  lost.index = 6;
  lost.client_id = 3;
  lost.lost = true;
  lost.truth_ta = 100.5;  // filled for lost polls too
  trace.samples.push_back(lost);
  harness::ReplaySample last = make_sample(7, 1700, 128.0);
  last.in_warmup = true;
  last.server_changed = true;
  trace.samples.push_back(last);
  trace.exchanges = trace.samples.size();
  trace.lost = 1;
  trace.polls_enumerated = 10;  // three outage-skipped slots
  return trace;
}

void expect_sample_bits(const harness::ReplaySample& got,
                        const harness::ReplaySample& want) {
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.lost, want.lost);
  EXPECT_EQ(got.client_id, want.client_id);
  EXPECT_EQ(got.in_warmup, want.in_warmup);
  EXPECT_EQ(got.server_changed, want.server_changed);
  EXPECT_EQ(got.ref_available, want.ref_available);
  EXPECT_EQ(got.raw.ta, want.raw.ta);
  EXPECT_TRUE(same_bits(got.raw.tb, want.raw.tb));
  EXPECT_TRUE(same_bits(got.raw.te, want.raw.te));
  EXPECT_EQ(got.raw.tf, want.raw.tf);
  EXPECT_EQ(got.tf_counts_corrected, want.tf_counts_corrected);
  EXPECT_TRUE(same_bits(got.tg, want.tg));
  EXPECT_TRUE(same_bits(got.truth_ta, want.truth_ta));
  EXPECT_TRUE(same_bits(got.truth_tb, want.truth_tb));
}

std::string read_error(const fs::path& path) {
  try {
    read_trace(path.string());
  } catch (const TraceIoError& e) {
    return e.what();
  }
  return {};
}

// -- Round trips -------------------------------------------------------------

TEST(TraceIo, ReferenceRoundTripIsBitIdentical) {
  const auto path = temp_path("ref_roundtrip.trace");
  const TraceMeta meta = reference_meta();
  const harness::ReplayTrace trace = gnarly_trace(false);
  write_trace(path.string(), meta, trace);

  const ReadTrace loaded = read_trace(path.string());
  EXPECT_TRUE(loaded.warnings.empty()) << loaded.warnings.front();
  EXPECT_EQ(loaded.meta.mode, harness::GroundTruthMode::kReference);
  EXPECT_TRUE(same_bits(loaded.meta.nominal_period, meta.nominal_period));
  EXPECT_TRUE(same_bits(loaded.meta.poll_period, meta.poll_period));
  EXPECT_EQ(loaded.meta.client_id, meta.client_id);
  EXPECT_EQ(loaded.meta.label, meta.label);
  EXPECT_EQ(loaded.trace.ground_truth, harness::GroundTruthMode::kReference);
  EXPECT_EQ(loaded.trace.exchanges, trace.exchanges);
  EXPECT_EQ(loaded.trace.lost, trace.lost);
  EXPECT_EQ(loaded.trace.polls_enumerated, trace.polls_enumerated);
  ASSERT_EQ(loaded.trace.samples.size(), trace.samples.size());
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    SCOPED_TRACE(i);
    expect_sample_bits(loaded.trace.samples[i], trace.samples[i]);
    if (!trace.samples[i].lost) {
      // t_day is derived, not stored: recomputed exactly from tb.
      EXPECT_TRUE(same_bits(loaded.trace.samples[i].t_day,
                            trace.samples[i].raw.tb / duration::kDay));
    }
  }

  // Serialization is canonical: re-writing the loaded trace reproduces the
  // file byte for byte.
  const auto path2 = temp_path("ref_roundtrip2.trace");
  write_trace(path2.string(), loaded.meta, loaded.trace);
  EXPECT_EQ(read_file(path), read_file(path2));
  fs::remove(path);
  fs::remove(path2);
}

TEST(TraceIo, RelativeWriterStripsGroundTruth) {
  const auto path = temp_path("relative.trace");
  TraceMeta meta = reference_meta();
  meta.mode = harness::GroundTruthMode::kRelativeOnly;
  meta.label.clear();
  // Exporting reference-bearing samples through a relative writer is the
  // "what would the field see" path: truth columns dropped, ref forced 0.
  write_trace(path.string(), meta, gnarly_trace(false));

  const ReadTrace loaded = read_trace(path.string());
  EXPECT_TRUE(loaded.warnings.empty());
  EXPECT_EQ(loaded.meta.mode, harness::GroundTruthMode::kRelativeOnly);
  EXPECT_EQ(loaded.meta.label, "");
  EXPECT_EQ(loaded.trace.ground_truth,
            harness::GroundTruthMode::kRelativeOnly);
  for (const auto& sample : loaded.trace.samples) {
    EXPECT_FALSE(sample.ref_available);
    EXPECT_TRUE(same_bits(sample.tg, 0.0));
    EXPECT_TRUE(same_bits(sample.truth_tb, 0.0));
    EXPECT_EQ(sample.client_id, meta.client_id);
  }
  fs::remove(path);
}

TEST(TraceIo, StreamingWriterMatchesOneShotExport) {
  const auto one_shot = temp_path("oneshot.trace");
  const auto streamed = temp_path("streamed.trace");
  const TraceMeta meta = reference_meta();
  const harness::ReplayTrace trace = gnarly_trace();
  write_trace(one_shot.string(), meta, trace);
  {
    TraceWriter writer(streamed.string(), meta);
    for (const auto& sample : trace.samples) writer.write(sample);
    EXPECT_EQ(writer.exchanges(), trace.exchanges);
    EXPECT_EQ(writer.lost(), trace.lost);
    writer.close(trace.polls_enumerated);
  }
  EXPECT_EQ(read_file(one_shot), read_file(streamed));
  fs::remove(one_shot);
  fs::remove(streamed);
}

TEST(TraceIo, RecordsSpellFieldsLikeTheSerializePrimitives) {
  // The writer formats in place; its text must stay that of std::to_string
  // and format_double_exact, field for field, hard doubles included.
  const auto path = temp_path("spelling.trace");
  const harness::ReplayTrace trace = gnarly_trace();
  write_trace(path.string(), reference_meta(), trace);
  const std::string content = read_file(path);
  EXPECT_NE(content.find("\nnominal_period " +
                         format_double_exact(reference_meta().nominal_period) +
                         "\npoll_period 0x1p+4\nclient 3\n"),
            std::string::npos);
  for (const auto& s : trace.samples) {
    SCOPED_TRACE(s.index);
    const auto flag = [](bool b) { return b ? "1\t" : "0\t"; };
    const std::string line =
        "\nx\t" + std::to_string(s.index) + "\t" + flag(s.lost) +
        flag(s.in_warmup) + flag(s.server_changed) + flag(s.ref_available) +
        std::to_string(s.raw.ta) + "\t" + format_double_exact(s.raw.tb) +
        "\t" + format_double_exact(s.raw.te) + "\t" +
        std::to_string(s.raw.tf) + "\t" +
        std::to_string(s.tf_counts_corrected) + "\t" +
        format_double_exact(s.truth_ta) + "\t" +
        format_double_exact(s.truth_tb) + "\t" + format_double_exact(s.tg) +
        "\n";
    EXPECT_NE(content.find(line), std::string::npos) << line;
  }
  EXPECT_TRUE(content.ends_with("\nend 8 1 10\n"));
  fs::remove(path);
}

/// A reference trace of `n` full-precision records, every 97th lost.
harness::ReplayTrace long_trace(std::size_t n) {
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  for (std::size_t i = 0; i < n; ++i) {
    harness::ReplaySample s = make_sample(
        i, 1'000'000'000'000ull + 16'000'000'123ull * i,
        16.000123456789 * static_cast<double>(i + 1));
    if (i % 97 == 96) {
      // Lost as a recorder writes it: no reply fields, truth kept.
      harness::ReplaySample lost;
      lost.index = s.index;
      lost.client_id = s.client_id;
      lost.lost = true;
      lost.truth_ta = s.truth_ta;
      lost.truth_tb = s.truth_tb;
      s = lost;
      ++trace.lost;
    }
    trace.samples.push_back(s);
  }
  trace.exchanges = n;
  trace.polls_enumerated = n + 5;
  return trace;
}

TEST(TraceIo, LargeExportMatchesStreamingWriterAcrossChunks) {
  const auto one_shot = temp_path("large_oneshot.trace");
  const auto streamed = temp_path("large_streamed.trace");
  const TraceMeta meta = reference_meta();
  const harness::ReplayTrace trace = long_trace(24000);
  write_trace(one_shot.string(), meta, trace);
  {
    TraceWriter writer(streamed.string(), meta);
    for (const auto& sample : trace.samples) writer.write(sample);
    writer.close(trace.polls_enumerated);
  }
  const std::string content = read_file(one_shot);
  // Several megabytes, so the export crosses its stream buffer many times.
  ASSERT_GT(content.size(), std::size_t{3} << 20);
  EXPECT_EQ(content, read_file(streamed));

  const ReadTrace loaded = read_trace(one_shot.string());
  EXPECT_TRUE(loaded.warnings.empty());
  EXPECT_EQ(loaded.trace.exchanges, trace.exchanges);
  EXPECT_EQ(loaded.trace.lost, trace.lost);
  EXPECT_EQ(loaded.trace.polls_enumerated, trace.polls_enumerated);
  ASSERT_EQ(loaded.trace.samples.size(), trace.samples.size());
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    SCOPED_TRACE(i);
    expect_sample_bits(loaded.trace.samples[i], trace.samples[i]);
  }

  // A bad flag deep in the file: the error names exactly that record.
  std::string corrupt = content;
  const std::size_t rec = corrupt.find("\nx\t15000\t");
  ASSERT_NE(rec, std::string::npos);
  const std::size_t lost_flag = rec + std::strlen("\nx\t15000\t");
  ASSERT_EQ(corrupt[lost_flag], '0');
  corrupt[lost_flag] = '2';
  write_file(one_shot, corrupt);
  EXPECT_EQ(read_error(one_shot),
            "trace " + one_shot.string() +
                ", record 15000: malformed bool field '2'");
  fs::remove(one_shot);
  fs::remove(streamed);
}

TEST(TraceIo, LiveWriterFlushesEveryRecordBeforeClose) {
  const auto live = temp_path("live_unclosed.trace");
  const auto complete = temp_path("live_complete.trace");
  const TraceMeta meta = reference_meta();
  const harness::ReplayTrace trace = long_trace(5);
  write_trace(complete.string(), meta, trace);
  const std::string full = read_file(complete);
  // The header and every record, without the end marker.
  const std::string expected = full.substr(0, full.rfind("end "));

  TraceWriter writer(live.string(), meta);
  for (const auto& sample : trace.samples) writer.write(sample);
  // No close(): what a killed collector leaves behind.
  const std::string on_disk = read_file(live);
  EXPECT_EQ(on_disk, expected);
  std::size_t records = 0;
  for (std::size_t at = on_disk.find("\nx\t"); at != std::string::npos;
       at = on_disk.find("\nx\t", at + 1)) {
    ++records;
  }
  EXPECT_EQ(records, trace.samples.size());
  const std::string what = read_error(live);
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  fs::remove(live);
  fs::remove(complete);
}

TEST(TraceIo, ReadsAPipeLikeAFile) {
  // A FIFO has no size up front, so the reader grows its buffer until end
  // of file; the trace is far past the first read's size.
  const auto file = temp_path("pipe_source.trace");
  const auto fifo = temp_path("pipe.fifo");
  write_trace(file.string(), reference_meta(), long_trace(2000));
  const std::string content = read_file(file);
  ASSERT_GT(content.size(), std::size_t{4} << 16);
  fs::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // A reader that stops early must fail this test, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  std::thread feeder(
      [&] { std::ofstream(fifo, std::ios::binary) << content; });
  ReadTrace from_pipe;
  std::string what;
  try {
    from_pipe = read_trace(fifo.string());
  } catch (const TraceIoError& e) {
    what = e.what();
  }
  feeder.join();
  ASSERT_EQ(what, "");
  const ReadTrace from_file = read_trace(file.string());
  ASSERT_EQ(from_pipe.trace.samples.size(), from_file.trace.samples.size());
  for (std::size_t i = 0; i < from_file.trace.samples.size(); ++i) {
    SCOPED_TRACE(i);
    expect_sample_bits(from_pipe.trace.samples[i], from_file.trace.samples[i]);
  }
  EXPECT_EQ(from_pipe.trace.polls_enumerated, from_file.trace.polls_enumerated);
  fs::remove(fifo);
  fs::remove(file);
}

// -- The streamed reader's window edge ---------------------------------------

/// A reference trace file a little over one read window, as text, with
/// `pad` characters of label: each extra one shifts every record a byte
/// later against the window edge.
std::string windowed_file(const fs::path& path, std::size_t pad,
                          const harness::ReplayTrace& trace) {
  TraceMeta meta = reference_meta();
  meta.label = std::string(1 + pad, 'a');
  write_trace(path.string(), meta, trace);
  return read_file(path);
}

void expect_reads_back(const fs::path& path, const std::string& label,
                       const harness::ReplayTrace& trace) {
  const ReadTrace loaded = read_trace(path.string());
  EXPECT_TRUE(loaded.warnings.empty());
  EXPECT_EQ(loaded.meta.label, label);
  ASSERT_EQ(loaded.trace.samples.size(), trace.samples.size());
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    SCOPED_TRACE(i);
    expect_sample_bits(loaded.trace.samples[i], trace.samples[i]);
  }
  EXPECT_EQ(loaded.trace.polls_enumerated, trace.polls_enumerated);
}

TEST(TraceIoWindow, RecordsEndingAtOrStraddlingTheWindowEdge) {
  const auto path = temp_path("window_edge.trace");
  const harness::ReplayTrace trace = long_trace(8000);
  const std::string base = windowed_file(path, 0, trace);
  ASSERT_GT(base.size(), kTraceReadWindow + 4096);
  // The pad that puts a record's newline on the window's last byte; one
  // more puts that newline just past the edge, 60 more the record's middle.
  const std::size_t last = base.rfind('\n', kTraceReadWindow - 1);
  const std::size_t on_edge = kTraceReadWindow - 1 - last;
  for (const std::size_t pad : {on_edge, on_edge + 1, on_edge + 60}) {
    SCOPED_TRACE(pad);
    const std::string content = windowed_file(path, pad, trace);
    const std::size_t line_start = content.rfind('\n', kTraceReadWindow - 2);
    ASSERT_EQ(content.compare(line_start, 3, "\nx\t"), 0);
    expect_reads_back(path, std::string(1 + pad, 'a'), trace);
  }
  fs::remove(path);
}

TEST(TraceIoWindow, LineLongerThanTheWindow) {
  const auto path = temp_path("window_long_line.trace");
  const harness::ReplayTrace trace = long_trace(3000);
  const std::size_t pad = kTraceReadWindow + kTraceReadWindow / 2;
  windowed_file(path, pad, trace);
  expect_reads_back(path, std::string(1 + pad, 'a'), trace);
  fs::remove(path);
}

TEST(TraceIoWindow, TornTailAtTheWindowEdge) {
  const auto path = temp_path("window_torn.trace");
  const harness::ReplayTrace trace = long_trace(8000);
  const std::string base = windowed_file(path, 0, trace);
  const std::size_t on_edge =
      kTraceReadWindow - 1 - base.rfind('\n', kTraceReadWindow - 1);
  // The file ends on the window's last byte: mid-record, then right after
  // a record's newline.
  const std::pair<std::size_t, std::string> cuts[] = {
      {on_edge + 60, ": torn trailing line (the file ends mid-record)"},
      {on_edge, ": truncated (unexpected end of file)"}};
  for (const auto& [pad, what] : cuts) {
    SCOPED_TRACE(pad);
    std::string content = windowed_file(path, pad, trace);
    content.resize(kTraceReadWindow);
    write_file(path, content);
    EXPECT_EQ(read_error(path), "trace " + path.string() + what);
  }
  fs::remove(path);
}

TEST(TraceIo, RefusesMissingFileAndDirectory) {
  const auto missing = temp_path("no_such.trace");
  fs::remove(missing);
  EXPECT_EQ(read_error(missing), "trace " + missing.string() + ": cannot open");
  const auto dir = temp_path("a_directory");
  fs::create_directories(dir);
  const std::string what = read_error(dir);
  EXPECT_EQ(what.rfind("trace " + dir.string() + ": ", 0), 0u) << what;
  fs::remove(dir);
}

// -- Structural validation ---------------------------------------------------

/// One canonical small file as mutation base.
std::string canonical_file() {
  const auto path = temp_path("canonical.trace");
  TraceMeta meta = reference_meta();
  meta.label.clear();
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  for (std::size_t i = 0; i < 4; ++i)
    trace.samples.push_back(make_sample(i, 1000 + 100 * i, 16.0 * (i + 1)));
  trace.exchanges = 4;
  trace.polls_enumerated = 4;
  write_trace(path.string(), meta, trace);
  const std::string content = read_file(path);
  fs::remove(path);
  return content;
}

std::string mutated_error(const std::string& content, const char* name) {
  const auto path = temp_path(std::string("mut_") + name + ".trace");
  write_file(path, content);
  const std::string what = read_error(path);
  fs::remove(path);
  return what;
}

TEST(TraceIo, RefusesNonTraceFile) {
  const std::string what = mutated_error("not a trace\n", "garbage");
  EXPECT_NE(what.find("not a tscclock-trace file"), std::string::npos)
      << what;
}

TEST(TraceIo, VersionSkewNamesBothVersions) {
  std::string content = canonical_file();
  content.replace(content.find("tscclock-trace 1"),
                  std::strlen("tscclock-trace 1"), "tscclock-trace 2");
  const std::string what = mutated_error(content, "skew");
  EXPECT_NE(what.find("version 2"), std::string::npos) << what;
  EXPECT_NE(what.find("expected version 1"), std::string::npos) << what;
}

TEST(TraceIo, RefusesTornTail) {
  const std::string content = canonical_file();
  // Cut mid final record: no trailing newline → kill-mid-write signature.
  const std::string torn = content.substr(0, content.size() - 15);
  const std::string what = mutated_error(torn, "torn");
  EXPECT_NE(what.find("torn trailing line"), std::string::npos) << what;
}

TEST(TraceIo, RefusesMissingEndMarker) {
  std::string content = canonical_file();
  content.erase(content.rfind("end "));
  const std::string what = mutated_error(content, "noend");
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
}

TEST(TraceIo, RefusesEndCountMismatch) {
  std::string content = canonical_file();
  content.replace(content.rfind("end 4 0 4"), 9, "end 3 0 4");
  const std::string what = mutated_error(content, "endcount");
  EXPECT_NE(what.find("end marker declares 3"), std::string::npos) << what;
}

TEST(TraceIo, RefusesEndPollsBelowExchanges) {
  std::string content = canonical_file();
  content.replace(content.rfind("end 4 0 4"), 9, "end 4 0 2");
  const std::string what = mutated_error(content, "endpolls");
  EXPECT_NE(what.find("fewer than"), std::string::npos) << what;
}

TEST(TraceIo, RefusesContentAfterEndMarker) {
  const std::string what = mutated_error(canonical_file() + "trailing\n",
                                         "afterend");
  EXPECT_NE(what.find("content after the end marker"), std::string::npos)
      << what;
}

TEST(TraceIo, RefusesDuplicateAndUnknownAndMissingHeaderKeys) {
  std::string content = canonical_file();
  EXPECT_NE(mutated_error("tscclock-trace 1\nclient 1\nclient 2\n" +
                              content.substr(content.find("samples")),
                          "duphdr")
                .find("duplicate header key"),
            std::string::npos);
  const std::size_t samples_at = content.find("samples");
  EXPECT_NE(mutated_error(content.substr(0, samples_at) + "frobnicate 1\n" +
                              content.substr(samples_at),
                          "unkhdr")
                .find("unknown header key 'frobnicate'"),
            std::string::npos);
  const std::size_t client_at = content.find("client ");
  std::string missing = content;
  missing.erase(client_at, content.find('\n', client_at) + 1 - client_at);
  EXPECT_NE(mutated_error(missing, "misshdr").find("missing client"),
            std::string::npos);
}

TEST(TraceIo, RefusesADuplicateLabelEvenWhenTheEarlierOneIsEmpty) {
  const std::string content = canonical_file();
  const std::size_t samples_at = content.find("samples");
  const std::string head = content.substr(0, samples_at);
  const std::string tail = content.substr(samples_at);
  const std::string duplicate = "trace " +
                                temp_path("mut_duplabel.trace").string() +
                                ": duplicate header key 'label'";
  for (const char* labels : {"label \nlabel \nlabel real\n",
                             "label real\nlabel \n", "label a\nlabel b\n"}) {
    SCOPED_TRACE(labels);
    EXPECT_EQ(mutated_error(head + labels + tail, "duplabel"), duplicate);
  }
  // One empty label line is a valid, empty label.
  EXPECT_EQ(mutated_error(head + "label \n" + tail, "emptylabel"), "");
}

TEST(TraceIo, EveryTruncationIsRefusedAsTornOrTruncated) {
  // Cut a small trace (header with a label, a lost record, the end marker)
  // at every byte: a cut inside a line is a torn tail, a cut after a
  // newline a truncation, and neither ever reads as a shorter trace.
  const auto path = temp_path("cut_everywhere.trace");
  write_trace(path.string(), reference_meta(), gnarly_trace(false));
  const std::string content = read_file(path);
  const std::string context = "trace " + path.string();
  for (std::size_t cut = 0; cut < content.size(); ++cut) {
    SCOPED_TRACE(cut);
    write_file(path, content.substr(0, cut));
    const bool torn = cut > 0 && content[cut - 1] != '\n';
    EXPECT_EQ(read_error(path),
              context + (torn ? ": torn trailing line (the file ends "
                                "mid-record)"
                              : ": truncated (unexpected end of file)"));
  }
  write_file(path, content);
  EXPECT_EQ(read_error(path), "");
  fs::remove(path);
}

TEST(TraceIo, RefusesUnknownGroundTruthMode) {
  std::string content = canonical_file();
  content.replace(content.find("ground_truth reference"),
                  std::strlen("ground_truth reference"),
                  "ground_truth absolute");
  const std::string what = mutated_error(content, "badmode");
  EXPECT_NE(what.find("unknown ground_truth mode 'absolute'"),
            std::string::npos)
      << what;
}

TEST(TraceIo, FieldCountErrorsNameTheModeMismatch) {
  // Reference record inside a relative-only declaration.
  std::string content = canonical_file();
  content.replace(content.find("ground_truth reference"),
                  std::strlen("ground_truth reference"),
                  "ground_truth relative");
  const std::string what = mutated_error(content, "refinrel");
  EXPECT_NE(what.find("record 0"), std::string::npos) << what;
  EXPECT_NE(what.find("reference-mode truth fields in a relative-only"),
            std::string::npos)
      << what;

  // Relative record inside a reference declaration: strip one record's
  // truth fields (drop the last three tab-separated fields).
  std::string stripped = canonical_file();
  const std::size_t rec = stripped.find("x\t");
  std::size_t eol = stripped.find('\n', rec);
  std::string record = stripped.substr(rec, eol - rec);
  for (int i = 0; i < 3; ++i) record.erase(record.rfind('\t'));
  stripped.replace(rec, eol - rec, record);
  const std::string what2 = mutated_error(stripped, "relinref");
  EXPECT_NE(what2.find("missing the truth fields"), std::string::npos)
      << what2;
}

TEST(TraceIo, RefusesNonMonotoneSendTimes) {
  const auto path = temp_path("nonmono.trace");
  TraceMeta meta = reference_meta();
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  trace.samples.push_back(make_sample(0, 2000, 16.0));
  trace.samples.push_back(make_sample(1, 1500, 32.0));  // Ta goes backwards
  trace.exchanges = 2;
  trace.polls_enumerated = 2;
  write_trace(path.string(), meta, trace);
  const std::string what = read_error(path);
  EXPECT_NE(what.find("record 1"), std::string::npos) << what;
  EXPECT_NE(what.find("1500"), std::string::npos) << what;
  EXPECT_NE(what.find("2000"), std::string::npos) << what;
  fs::remove(path);
}

/// `content` with tab-separated column `column` of record `record` replaced
/// by `token` (column 0 is the `x` tag).
std::string with_field(std::string content, std::size_t record,
                       std::size_t column, const std::string& token) {
  const std::string tag = "\nx\t" + std::to_string(record) + "\t";
  std::size_t begin = content.find(tag) + 1;
  for (std::size_t c = 0; c < column; ++c)
    begin = content.find('\t', begin) + 1;
  const std::size_t end = content.find_first_of("\t\n", begin);
  content.replace(begin, end - begin, token);
  return content;
}

/// canonical_file() with one field replaced, as with_field.
std::string with_record_field(std::size_t record, std::size_t column,
                              const std::string& token) {
  return with_field(canonical_file(), record, column, token);
}

TEST(TraceIo, RefusesNonFiniteRecordFields) {
  const struct {
    std::size_t column;
    const char* token;
    const char* field;
  } cases[] = {{7, "nan", "tb"},        {8, "-inf", "te"},
               {11, "nan", "truth_ta"}, {12, "inf", "truth_tb"},
               {13, "inf", "tg"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    const std::string what =
        mutated_error(with_record_field(2, c.column, c.token), "nonfinite");
    EXPECT_NE(what.find(", record 2: non-finite " + std::string(c.field) +
                        " '" + c.token + "'"),
              std::string::npos)
        << what;
  }
}

/// canonical_file()'s four records with record 2 lost, written as the
/// recorder writes a lost poll: flags and truth only.
std::string lost_record_file() {
  const auto path = temp_path("lost.trace");
  TraceMeta meta = reference_meta();
  meta.label.clear();
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  for (std::size_t i = 0; i < 4; ++i)
    trace.samples.push_back(make_sample(i, 1000 + 100 * i, 16.0 * (i + 1)));
  harness::ReplaySample lost;
  lost.index = 2;
  lost.client_id = 3;
  lost.lost = true;
  lost.truth_ta = trace.samples[2].truth_ta;
  lost.truth_tb = trace.samples[2].truth_tb;
  trace.samples[2] = lost;
  trace.exchanges = 4;
  trace.lost = 1;
  trace.polls_enumerated = 4;
  write_trace(path.string(), meta, trace);
  const std::string content = read_file(path);
  fs::remove(path);
  return content;
}

TEST(TraceIo, RefusesLostRecordsCarryingReplyFields) {
  // Read back, a lost record's reply fields would reach its row's columns.
  const std::string clean = lost_record_file();
  ASSERT_NE(clean.find("\nx\t2\t1\t"), std::string::npos);
  EXPECT_EQ(mutated_error(clean, "lostclean"), "");
  const struct {
    std::size_t column;
    const char* token;
    const char* what;
  } cases[] = {{4, "1", "server_changed=1"},  {5, "1", "ref=1"},
               {6, "12345", "a non-zero ta"},  {7, "0x1p+10", "a non-zero tb"},
               {7, "-0x0p+0", "a non-zero tb"}, {8, "0x1p-3", "a non-zero te"},
               {9, "1", "a non-zero tf"},
               {10, "7", "a non-zero tf_corrected"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string what = mutated_error(
        with_field(clean, 2, c.column, c.token), "lostreply");
    EXPECT_NE(what.find(", record 2: lost record carries " +
                        std::string(c.what)),
              std::string::npos)
        << what;
  }
}

TEST(TraceIo, RefusesNonFiniteHeaderPeriods) {
  for (const char* key : {"nominal_period", "poll_period"}) {
    SCOPED_TRACE(key);
    std::string content = canonical_file();
    const std::size_t value = content.find(std::string(key) + " ") +
                              std::strlen(key) + 1;
    content.replace(value, content.find('\n', value) - value, "inf");
    const std::string what = mutated_error(content, "infperiod");
    EXPECT_NE(what.find(std::string(key) +
                        " must be positive and finite, got 'inf'"),
              std::string::npos)
        << what;
  }
}

// -- Warnings (the trace-import exit-1 taxonomy) -----------------------------

TEST(TraceIo, WarnsOnceOnBackwardsServerStamps) {
  const auto path = temp_path("tbback.trace");
  TraceMeta meta = reference_meta();
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  trace.samples.push_back(make_sample(0, 1000, 64.0));
  trace.samples.push_back(make_sample(1, 1100, 32.0));  // server steps back
  trace.samples.push_back(make_sample(2, 1200, 16.0));  // ...and again
  trace.exchanges = 3;
  trace.polls_enumerated = 3;
  write_trace(path.string(), meta, trace);
  const ReadTrace loaded = read_trace(path.string());
  ASSERT_EQ(loaded.warnings.size(), 1u) << "deduplicated to one warning";
  EXPECT_NE(loaded.warnings[0].find("record 1"), std::string::npos);
  EXPECT_NE(loaded.warnings[0].find("backwards"), std::string::npos);
  fs::remove(path);
}

TEST(TraceIo, WarnsOnUnscorableLengthAndZeroReferenceCoverage) {
  const auto path = temp_path("warnings.trace");
  TraceMeta meta = reference_meta();
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  harness::ReplaySample only = make_sample(0, 1000, 16.0);
  only.ref_available = false;  // declared reference, no truth anywhere
  trace.samples.push_back(only);
  trace.exchanges = 1;
  trace.polls_enumerated = 1;
  write_trace(path.string(), meta, trace);
  const ReadTrace loaded = read_trace(path.string());
  ASSERT_EQ(loaded.warnings.size(), 2u);
  EXPECT_NE(loaded.warnings[0].find("no record carries a reference sample"),
            std::string::npos)
      << loaded.warnings[0];
  EXPECT_NE(loaded.warnings[1].find("not scorable"), std::string::npos)
      << loaded.warnings[1];
  fs::remove(path);
}

// -- The pooled parse --------------------------------------------------------

void expect_same_read(const ReadTrace& got, const ReadTrace& want) {
  EXPECT_EQ(got.meta.mode, want.meta.mode);
  EXPECT_TRUE(same_bits(got.meta.nominal_period, want.meta.nominal_period));
  EXPECT_TRUE(same_bits(got.meta.poll_period, want.meta.poll_period));
  EXPECT_EQ(got.meta.client_id, want.meta.client_id);
  EXPECT_EQ(got.meta.label, want.meta.label);
  EXPECT_EQ(got.warnings, want.warnings);
  EXPECT_EQ(got.trace.ground_truth, want.trace.ground_truth);
  EXPECT_EQ(got.trace.exchanges, want.trace.exchanges);
  EXPECT_EQ(got.trace.lost, want.trace.lost);
  EXPECT_EQ(got.trace.polls_enumerated, want.trace.polls_enumerated);
  ASSERT_EQ(got.trace.samples.size(), want.trace.samples.size());
  for (std::size_t i = 0; i < want.trace.samples.size(); ++i) {
    SCOPED_TRACE(i);
    expect_sample_bits(got.trace.samples[i], want.trace.samples[i]);
    EXPECT_TRUE(same_bits(got.trace.samples[i].t_day,
                          want.trace.samples[i].t_day));
  }
}

/// read_trace's error on `path` on `pool`, or "" when it reads.
std::string pooled_read_error(const fs::path& path, ThreadPool& pool) {
  try {
    read_trace(path.string(), &pool);
  } catch (const TraceIoError& e) {
    return e.what();
  }
  return {};
}

TEST(TraceIoPool, PooledReadEqualsSerialAcrossWindows) {
  const auto path = temp_path("pooled.trace");
  harness::ReplayTrace trace = long_trace(20000);
  trace.samples[12345].raw.tb = 1.0;  // a server step: one warning
  write_trace(path.string(), reference_meta(), trace);
  ASSERT_GT(fs::file_size(path), 3 * kTraceReadWindow);
  const ReadTrace serial = read_trace(path.string());
  ASSERT_EQ(serial.warnings.size(), 1u);
  EXPECT_NE(serial.warnings[0].find("record 12345"), std::string::npos);
  for (const std::size_t workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    expect_same_read(read_trace(path.string(), &pool), serial);
  }
  fs::remove(path);
}

/// Faults planted in a file of several read windows. Record i of
/// long_trace has index i, so a record's slot is the number in its line.
class TraceIoPoolFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    content_ = windowed_file(path_, 0, long_trace(20000));
    ASSERT_GT(content_.size(), 3 * kTraceReadWindow);
  }
  void TearDown() override { fs::remove(path_); }

  /// The record whose line holds byte `offset` of the file.
  [[nodiscard]] std::size_t record_at(std::size_t offset) const {
    const std::size_t line = content_.rfind('\n', offset - 1) + 1;
    EXPECT_EQ(content_.compare(line, 2, "x\t"), 0);
    return std::stoul(content_.substr(line + 2, 12));
  }

  /// The base file with column `column` of each listed record replaced.
  [[nodiscard]] std::string with_fields(
      std::initializer_list<std::tuple<std::size_t, std::size_t, std::string>>
          changes) const {
    std::string content = content_;
    for (const auto& [record, column, token] : changes) {
      const std::string tag = "\nx\t" + std::to_string(record) + "\t";
      std::size_t begin = content.find(tag) + 1;
      for (std::size_t c = 0; c < column; ++c)
        begin = content.find('\t', begin) + 1;
      const std::size_t end = content.find_first_of("\t\n", begin);
      content.replace(begin, end - begin, token);
    }
    return content;
  }

  /// Writes `content` and expects exactly `what` from the serial read and
  /// from a 4-worker pool.
  void expect_error(const std::string& content, const std::string& what) {
    write_file(path_, content);
    EXPECT_EQ(read_error(path_), "trace " + path_.string() + what);
    EXPECT_EQ(pooled_read_error(path_, pool_),
              "trace " + path_.string() + what);
  }

  static std::string bad_bool(std::size_t record) {
    return ", record " + std::to_string(record) + ": malformed bool field '2'";
  }

  /// The error for record `record`'s Ta set to 1.
  static std::string send_time_step(std::size_t record) {
    std::size_t previous = record - 1;
    if (previous % 97 == 96) --previous;  // lost: not an arrival
    return ", record " + std::to_string(record) +
           ": send time Ta 1 is not after the previous arrival's " +
           std::to_string(1'000'000'000'000ull + 16'000'000'123ull * previous) +
           " (records out of order, or two interleaved captures)";
  }

  /// The first byte of the samples section.
  [[nodiscard]] std::size_t samples_start() const {
    return content_.find("\nsamples\n") + std::strlen("\nsamples\n");
  }

  const fs::path path_ = temp_path("pool_faults.trace");
  std::string content_;
  ThreadPool pool_{4};
};

TEST_F(TraceIoPoolFaults, AFaultNextToAChunkOrWindowEdgeNamesItsRecord) {
  // Records around the first window's first two chunk cuts, the window
  // edge, and the second window's first chunk cut.
  const std::size_t start = samples_start();
  for (const std::size_t edge :
       {start + kTraceParseChunk, start + 2 * kTraceParseChunk,
        kTraceReadWindow, kTraceReadWindow + kTraceParseChunk}) {
    const std::size_t at = record_at(edge);
    for (const std::size_t record : {at - 1, at, at + 1}) {
      SCOPED_TRACE(record);
      expect_error(with_fields({{record, 2, "2"}}), bad_bool(record));
      if (record % 97 == 96) continue;  // lost: its Ta is not checked
      expect_error(with_fields({{record, 6, "1"}}), send_time_step(record));
    }
  }
}

TEST_F(TraceIoPoolFaults, TheEarlierOfTwoParseFaultsWins) {
  // The record holding the chunk size's byte may still end the first
  // chunk; the one after it is in the second.
  const std::size_t second_chunk =
      record_at(samples_start() + kTraceParseChunk) + 1;
  const std::size_t second_window = record_at(kTraceReadWindow) + 1;
  expect_error(with_fields({{100, 2, "2"}, {second_chunk, 3, "x"}}),
               bad_bool(100));
  expect_error(with_fields({{second_chunk, 2, "2"}, {second_window, 3, "x"}}),
               bad_bool(second_chunk));
  expect_error(with_fields({{second_window, 2, "2"}, {19000, 3, "x"}}),
               bad_bool(second_window));
}

TEST_F(TraceIoPoolFaults, AnEarlierSendTimeStepWinsOverALaterParseFault) {
  const std::string step = send_time_step(100);
  const std::size_t later_chunk =
      record_at(samples_start() + kTraceParseChunk) + 1;
  const std::size_t later_window = record_at(kTraceReadWindow) + 1;
  ASSERT_GT(later_chunk, 101u);
  expect_error(with_fields({{100, 6, "1"}, {101, 2, "2"}}), step);
  expect_error(with_fields({{100, 6, "1"}, {later_chunk, 2, "2"}}), step);
  expect_error(with_fields({{100, 6, "1"}, {later_window, 2, "2"}}), step);
  // ...and a parse fault wins over a later step.
  expect_error(with_fields({{100, 2, "2"}, {later_window, 6, "1"}}),
               bad_bool(100));
}

TEST_F(TraceIoPoolFaults, ContentAfterTheEndMarkerAndTornTails) {
  // The end marker and the line after it share the last window.
  expect_error(content_ + "trailing\n",
               ": content after the end marker ('trailing')");
  expect_error(content_ + "partial",
               ": torn trailing line after the end marker");
  // The end marker alone at a window's end: what follows is read after.
  const std::size_t end_at = content_.rfind("end ");
  std::string padded = content_.substr(0, end_at);
  padded += std::string(kTraceReadWindow - padded.size() % kTraceReadWindow,
                        '\n');
  expect_error(padded + content_.substr(end_at),
               ", record 20000: expected a sample record, got ''");
  // A final record cut short, in the last window.
  expect_error(content_.substr(0, end_at - 40),
               ": torn trailing line (the file ends mid-record)");
  expect_error(content_.substr(0, end_at),
               ": truncated (unexpected end of file)");
}

TEST_F(TraceIoPoolFaults, AnEndMarkerMidFileEndsTheRecords) {
  // An end marker in the first window: its counts are checked first, then
  // the record after it is content after the end.
  const std::size_t cut = content_.find("\nx\t", 4096) + 1;
  const std::size_t records = record_at(cut);
  const std::size_t lost = records / 97;  // every 97th record is lost
  const std::string held = std::to_string(records) + " / " +
                           std::to_string(lost);
  std::string content = content_;
  content.insert(cut, "end 0 0 0\n");
  expect_error(content, ": end marker declares 0 exchanges / 0 lost, file "
                        "holds " + held);
  content = content_;
  content.insert(cut, "end " + std::to_string(records) + " " +
                          std::to_string(lost) + " " +
                          std::to_string(records) + "\n");
  expect_error(content, ": content after the end marker ('" +
                            content_.substr(cut, content_.find('\n', cut) -
                                                     cut) +
                            "')");
}

TEST(TraceIoPool, ReadsAPipeOnAPool) {
  const auto file = temp_path("pool_pipe_source.trace");
  const auto fifo = temp_path("pool_pipe.fifo");
  write_trace(file.string(), reference_meta(), long_trace(15000));
  const std::string content = read_file(file);
  ASSERT_GT(content.size(), 2 * kTraceReadWindow);
  fs::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::signal(SIGPIPE, SIG_IGN);
  std::thread feeder(
      [&] { std::ofstream(fifo, std::ios::binary) << content; });
  ThreadPool pool(4);
  ReadTrace from_pipe;
  std::string what;
  try {
    from_pipe = read_trace(fifo.string(), &pool);
  } catch (const TraceIoError& e) {
    what = e.what();
  }
  feeder.join();
  ASSERT_EQ(what, "");
  expect_same_read(from_pipe, read_trace(file.string()));
  fs::remove(fifo);
  fs::remove(file);
}

TEST(TraceIoPool, TraceCellScoresTheSameOnOneAndFourThreads) {
  // A four-day recording spans several read windows and smoothing blocks.
  sweep::SweepScenario source;
  source.name = "pool-source";
  source.config.server = sim::ServerKind::kInt;
  source.config.poll_period = 16.0;
  source.config.duration = 4 * duration::kDay;
  source.config.seed = 23;
  const auto path = temp_path("pool_cell.trace");
  const auto specs =
      harness::estimator_registry().parse_list("offline,offline(split=shifts)");
  (void)sweep::run_scenario_multi(source, specs, 600, {}, false,
                                  path.string());
  ASSERT_GT(fs::file_size(path), 3 * kTraceReadWindow);

  sweep::SweepScenario cell;
  cell.name = "trace:pool-source";
  cell.trace_path = path.string();
  const auto run_cell = [&](std::size_t threads,
                            std::vector<harness::CollectorSink>& dumps) {
    ThreadPool pool(threads);
    std::vector<harness::SampleSink*> sinks;
    for (auto& dump : dumps) sinks.push_back(&dump);
    std::string lines;
    for (const auto& result :
         sweep::run_scenario_multi(cell, specs, 0, sinks, false, {}, &pool)) {
      EXPECT_FALSE(result.failed) << result.error;
      lines += sweep::serialize_result(result) + "\n";
    }
    return lines;
  };
  std::vector<harness::CollectorSink> one(specs.size()), four(specs.size());
  EXPECT_EQ(run_cell(1, one), run_cell(4, four));
  for (std::size_t e = 0; e < specs.size(); ++e) {
    SCOPED_TRACE(specs[e].label());
    const auto& a = one[e].records();
    const auto& b = four[e].records();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 20000u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(same_bits(a[i].report.offset_estimate,
                            b[i].report.offset_estimate))
          << "record " << i;
      ASSERT_TRUE(same_bits(a[i].abs_clock_error, b[i].abs_clock_error))
          << "record " << i;
    }
  }
  fs::remove(path);
}

}  // namespace
}  // namespace tscclock::trace
