#ifndef CLOG_PERFBENCH_CHECKS_H_
#define CLOG_PERFBENCH_CHECKS_H_

// The pure functions the benchmark's verdict rests on: record encoding,
// the two audits and the quantile. They use nothing of the engine, so
// `clogbench --selftest` can feed them planted faults.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Every record the benchmark writes is this many bytes: a 20-digit decimal
/// number followed by filler taken from the inputs.
inline constexpr std::size_t kValueBytes = 64;
inline constexpr std::size_t kNumberDigits = 20;
inline constexpr std::size_t kPadBytes = kValueBytes - kNumberDigits;

inline std::string EncodeValue(std::uint64_t number, const std::string& pad) {
  char digits[kNumberDigits + 1];
  std::snprintf(digits, sizeof(digits), "%020llu",
                static_cast<unsigned long long>(number));
  std::string out(digits, kNumberDigits);
  out += pad.substr(0, kPadBytes);
  out.resize(kValueBytes, '.');
  return out;
}

/// Parses the number of an EncodeValue string; false if `value` is not one.
inline bool DecodeNumber(const std::string& value, std::uint64_t* number) {
  if (value.size() != kValueBytes) return false;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kNumberDigits; ++i) {
    const char c = value[i];
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *number = n;
  return true;
}

/// Nearest-rank quantile of ascending `sorted`: the smallest sample with at
/// least a share `q` of all samples at or below it. 0 for no samples.
inline double NearestRank(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  // The epsilon keeps q * n from rounding just above a whole rank.
  double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  r = std::min(r, sorted.size());
  return static_cast<double>(sorted[r - 1]);
}

struct RecordAudit {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  std::size_t first_bad = 0;  ///< Index of the first mismatch.
};

/// Compares every read-back record with the model's value for it.
inline RecordAudit AuditRecords(const std::vector<std::string>& expected,
                                const std::vector<std::string>& actual) {
  RecordAudit out;
  const std::size_t n = std::max(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    ++out.checked;
    const bool same = i < expected.size() && i < actual.size() &&
                      expected[i] == actual[i];
    if (!same) {
      if (out.mismatched == 0) out.first_bad = i;
      ++out.mismatched;
    }
  }
  return out;
}

struct CounterAudit {
  std::uint64_t expected_sum = 0;
  std::uint64_t actual_sum = 0;
  std::uint64_t missing = 0;  ///< Increments the model has and the data lacks.
  std::uint64_t extra = 0;    ///< Increments the data has and the model lacks.
  std::size_t bad_records = 0;
  bool ok() const { return missing == 0 && extra == 0 && bad_records == 0; }
};

/// Compares read-back counters with the model, record by record, so that a
/// lost increment on one counter cannot hide behind an extra one elsewhere.
/// `valid[i]` is false for a record whose value did not decode.
inline CounterAudit AuditCounters(const std::vector<std::uint64_t>& expected,
                                  const std::vector<std::uint64_t>& actual,
                                  const std::vector<bool>& valid) {
  CounterAudit out;
  const std::size_t n = std::max(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t e = i < expected.size() ? expected[i] : 0;
    const bool have = i < actual.size() && i < valid.size() && valid[i];
    const std::uint64_t a = have ? actual[i] : 0;
    out.expected_sum += e;
    out.actual_sum += a;
    if (!have) {
      ++out.bad_records;
      out.missing += e;
      continue;
    }
    if (a < e) out.missing += e - a;
    if (a > e) out.extra += a - e;
  }
  return out;
}

}  // namespace perfbench

#endif  // CLOG_PERFBENCH_CHECKS_H_
