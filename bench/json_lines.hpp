// Field scanners for the one-object-per-line JSON snapshots the benches
// write and check against (BENCH_kernels.json, BENCH_quality.json). There
// is no JSON library in the build; the format is machine-written and rigid.
#pragma once

#include <cstdlib>
#include <string>

namespace fdml::bench {

inline bool scan_string(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  out = line.substr(start, end - start);
  return true;
}

inline bool scan_number(const std::string& line, const char* key, double& out) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  out = std::strtod(line.c_str() + at + needle.size(), nullptr);
  return true;
}

}  // namespace fdml::bench
