// Flags shared by fj_server and fj_client. The --verify contract depends
// on both binaries deriving the *identical* deterministic workload and
// model from the same flag values, so the flag set, defaults, and
// workload construction live here, once.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

#include "net/socket.h"
#include "workload/imdb_job.h"
#include "workload/stats_ceb.h"

namespace fj::tools {

struct WorkloadFlags {
  std::string workload = "stats";
  double scale = 0.1;
  size_t queries = 16;
  uint32_t bins = 64;
  uint64_t seed = 0;  // 0: workload default
  std::string host = "127.0.0.1";
  uint16_t port = 9977;
  std::string unix_path;
};

inline constexpr const char* kWorkloadFlagsUsage =
    "  --workload stats|imdb   synthetic workload (default stats)\n"
    "  --scale S               database scale factor (default 0.1)\n"
    "  --queries N             queries to generate (default 16)\n"
    "  --bins K                FactorJoin bins (default 64)\n"
    "  --seed N                workload seed (default: workload's)\n"
    "  --host H                TCP host (default 127.0.0.1)\n"
    "  --port P                TCP port; 0 = ephemeral (default 9977)\n"
    "  --unix PATH             Unix-domain socket instead of TCP\n";

/// Consumes argv[*i + 1] (advancing *i) as the value of the integer flag
/// argv[*i]: decimal digits only, at most the largest `T`. A missing,
/// non-numeric, negative or out-of-range value returns false, after saying
/// why for a present one; every tool then exits 2 with its usage, before
/// it trains anything.
template <typename T>
bool ParseIntFlag(int argc, char** argv, int* i, T* out) {
  static_assert(std::is_unsigned_v<T>);
  if (*i + 1 >= argc) return false;
  const char* flag = argv[*i];
  std::string_view text = argv[++*i];
  const char* end = text.data() + text.size();
  auto [parsed_end, error] = std::from_chars(text.data(), end, *out);
  if (error != std::errc() || parsed_end != end) {
    std::fprintf(stderr, "%s wants an integer in [0, %llu], got '%s'\n", flag,
                 static_cast<unsigned long long>(std::numeric_limits<T>::max()),
                 argv[*i]);
    return false;
  }
  return true;
}

/// Tries to consume argv[*i] (advancing past its value) as one of the
/// shared flags. Returns 1 when consumed, 0 when the flag is not a shared
/// one (the caller may have tool-specific flags), -1 on a missing or
/// malformed value.
inline int TryParseWorkloadFlag(int argc, char** argv, int* i,
                                WorkloadFlags* flags) {
  std::string flag = argv[*i];
  auto text = [&](std::string* field) {
    if (*i + 1 >= argc) return -1;
    *field = argv[++*i];
    return 1;
  };
  auto integer = [&](auto* field) {
    return ParseIntFlag(argc, argv, i, field) ? 1 : -1;
  };
  if (flag == "--workload") return text(&flags->workload);
  if (flag == "--scale") {
    if (*i + 1 >= argc) return -1;
    flags->scale = std::atof(argv[++*i]);
    return 1;
  }
  if (flag == "--queries") return integer(&flags->queries);
  if (flag == "--bins") return integer(&flags->bins);
  if (flag == "--seed") return integer(&flags->seed);
  if (flag == "--host") return text(&flags->host);
  if (flag == "--port") return integer(&flags->port);
  if (flag == "--unix") return text(&flags->unix_path);
  return 0;
}

/// The deterministic workload both sides must agree on.
inline std::unique_ptr<Workload> MakeFlaggedWorkload(
    const WorkloadFlags& flags) {
  if (flags.workload == "imdb") {
    ImdbJobOptions o;
    o.scale = flags.scale;
    o.num_queries = flags.queries;
    if (flags.seed != 0) o.seed = flags.seed;
    return MakeImdbJob(o);
  }
  StatsCebOptions o;
  o.scale = flags.scale;
  o.num_queries = flags.queries;
  if (flags.seed != 0) o.seed = flags.seed;
  return MakeStatsCeb(o);
}

inline net::Endpoint EndpointFromFlags(const WorkloadFlags& flags) {
  net::Endpoint endpoint;
  if (!flags.unix_path.empty()) {
    endpoint.unix_path = flags.unix_path;
  } else {
    endpoint.host = flags.host;
    endpoint.port = flags.port;
  }
  return endpoint;
}

}  // namespace fj::tools
