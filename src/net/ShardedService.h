//===- net/ShardedService.h - Hash-routed service shards --------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// N independent `Service` shards behind one submission surface. Each
/// shard owns everything `ServiceConfig` describes — its worker pool,
/// bounded tenant queues, artifact cache, TenantGovernor, and circuit
/// breakers — so no mutex, governor map, or cache ledger is shared
/// between shards: a request contends only with the traffic its own
/// shard carries. Requests route by an FNV-1a hash of (tenant, source),
/// which keeps one tenant's runs of one program on one shard — warm
/// caches and a coherent breaker/governor view — while spreading
/// distinct (tenant, program) pairs across the fleet.
///
/// The cost of that isolation is deliberate and visible: two shards
/// that both see a source key compile it independently (per-shard
/// caches don't share artifacts), and per-tenant quotas are enforced
/// per shard. The aggregated stats() view sums shard counters;
/// shardStats() exposes the per-shard breakdown the bench harness and
/// `--stats` report use.
///
/// This is the *shard level* of the configuration split: ServiceConfig
/// tunes one shard, FrontEndConfig (below) tunes the fleet and the
/// socket front end that feeds it (Server.h).
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_NET_SHARDEDSERVICE_H
#define PERCEUS_NET_SHARDEDSERVICE_H

#include "service/Service.h"

#include <memory>
#include <string_view>
#include <vector>

namespace perceus {

/// Front-end-level tuning: how many shards, and how the socket listener
/// frames and bounds its connections. The per-shard knobs live in the
/// embedded ServiceConfig; `perc --listen` builds one of these from the
/// CLI and hands it to ShardedService + Server.
struct FrontEndConfig {
  /// Service shards. 0 = one per hardware thread (hardware_concurrency
  /// clamped to [1, 8]); the default stays 1 so single-shard behavior
  /// is what you get unless you ask.
  unsigned Shards = 1;
  /// Applied to every shard (each gets its own workers, queue, cache,
  /// governor, and breakers at these settings).
  ServiceConfig Shard;
  /// Ceiling on one framed request (line or length-prefixed payload).
  /// A frame over this is a structured bad-request and the connection
  /// closes. Also bounds per-connection buffering.
  size_t MaxFrameBytes = 64 * 1024;
  /// listen(2) backlog for the accept socket.
  int ListenBacklog = 64;
  /// Accepted-connection cap; further accepts are closed immediately
  /// (counted, never serviced) until a slot frees.
  size_t MaxConnections = 1024;
  /// Close a connection that has been idle (no bytes in, nothing
  /// buffered out, nothing in flight) this long. 0 = never. This is the
  /// slow-loris backstop: a peer dribbling a frame forever holds a
  /// connection slot only until this expires.
  uint64_t IdleTimeoutMs = 0;

  FrontEndConfig &withShards(unsigned N) {
    Shards = N;
    return *this;
  }
  FrontEndConfig &withShard(const ServiceConfig &C) {
    Shard = C;
    return *this;
  }
  FrontEndConfig &withMaxFrameBytes(size_t B) {
    MaxFrameBytes = B;
    return *this;
  }
  FrontEndConfig &withListenBacklog(int N) {
    ListenBacklog = N;
    return *this;
  }
  FrontEndConfig &withMaxConnections(size_t N) {
    MaxConnections = N;
    return *this;
  }
  FrontEndConfig &withIdleTimeoutMs(uint64_t Ms) {
    IdleTimeoutMs = Ms;
    return *this;
  }
};

/// See the file comment.
class ShardedService {
public:
  using ResponseCallback = Service::ResponseCallback;

  explicit ShardedService(const FrontEndConfig &FC = {});
  ~ShardedService(); ///< stops every shard
  ShardedService(const ShardedService &) = delete;
  ShardedService &operator=(const ShardedService &) = delete;

  size_t shardCount() const { return Shards.size(); }

  /// The shard (tenant, source) routes to: FNV-1a over tenant, a
  /// separator, then source, mod the shard count. Stable for the
  /// process lifetime — stats and caches stay attributable.
  size_t shardFor(std::string_view Tenant, std::string_view Source) const;

  /// Direct access to shard \p I (tests and the stats report).
  Service &shard(size_t I) { return *Shards[I]; }

  /// Routes \p R to its shard and submits. \p Done sees the response
  /// with ServiceResponse::Shard stamped; the same callback-threading
  /// caveats as Service::submitWith apply.
  void submitWith(ServiceRequest R, ResponseCallback Done);

  /// Future-returning convenience over submitWith().
  std::future<ServiceResponse> submit(ServiceRequest R);

  /// submit() + get().
  ServiceResponse call(ServiceRequest R);

  /// Warms (tenant, source)'s owning shard. The EngineKind parameter
  /// only keeps existing callers compiling: the VM is the only engine.
  bool precompile(const std::string &Tenant, const std::string &Source,
                  const PassConfig &Config, EngineKind,
                  std::string *Error = nullptr);

  /// Installs \p Tenant's policy on every shard (a tenant's requests
  /// may route to any shard depending on source).
  void setTenantPolicy(const std::string &Tenant, const TenantPolicy &P);

  /// Sums \p Tenant's counters across shards.
  TenantCounters tenantStats(const std::string &Tenant) const;

  /// Fleet-wide aggregate (accumulate() over every shard).
  ServiceStats stats() const;

  /// Shard \p I's own counters.
  ServiceStats shardStats(size_t I) const { return Shards[I]->stats(); }

  /// Stops every shard. Idempotent; the destructor calls it.
  void stop();

  const FrontEndConfig &config() const { return Config; }

private:
  FrontEndConfig Config;
  std::vector<std::unique_ptr<Service>> Shards;
};

} // namespace perceus

#endif // PERCEUS_NET_SHARDEDSERVICE_H
