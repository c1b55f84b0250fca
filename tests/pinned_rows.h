#ifndef HIVE_TESTS_PINNED_ROWS_H_
#define HIVE_TESTS_PINNED_ROWS_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace hive {
namespace pinned {

/// Result fingerprints pinned in tests/data/pinned_rows.txt: one line per
/// query, `<suite>/<query> <row count> <digest>`. They were recorded from the
/// serial operators the morsel pipeline replaced, so every engine
/// configuration the byte-identity matrices sweep is checked against a
/// reference that no longer runs, not against itself. Re-record only when a
/// query's intended answer changes, never to absorb a diff.
///
/// The digest is 64-bit FNV-1a over the rows rendered one per line, each
/// value's ToString followed by '|' (the matrices' row rendering).
inline std::string Fingerprint(const std::vector<std::string>& rows) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& row : rows) {
    for (char c : row) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= static_cast<unsigned char>('\n');
    h *= 1099511628211ULL;
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(h));
  return std::to_string(rows.size()) + " " + digest;
}

/// The pinned fingerprint of `key`, or "<unpinned key>" when the data file
/// has no such line (so a comparison fails with the key in the message).
inline std::string Expected(const std::string& key) {
  static const std::map<std::string, std::string> pins = [] {
    std::map<std::string, std::string> m;
    std::ifstream in(std::string(HIVE_TEST_DATA_DIR) + "/pinned_rows.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name, count, digest;
      if (fields >> name >> count >> digest) m[name] = count + " " + digest;
    }
    return m;
  }();
  auto it = pins.find(key);
  return it == pins.end() ? "<unpinned " + key + ">" : it->second;
}

}  // namespace pinned
}  // namespace hive

#endif  // HIVE_TESTS_PINNED_ROWS_H_
