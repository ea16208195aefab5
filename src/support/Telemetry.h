//===- support/Telemetry.h - Per-site RC event attribution ------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry hook that makes every reference-count event attributable
/// to the IR instruction that caused it.
///
/// Design constraints, in order:
///
///  1. The unhooked fast path must stay free: the heap keeps a single
///     `StatsSink *` that is null in ordinary runs, and every event site
///     is a predicted-false `if (Sink)` branch — the same pattern as the
///     PR 1 resource governor's `Governed` flag.
///  2. No dependency inversion: `support` must not know about `ir`, so a
///     site is an opaque `const void *` (in practice the `Expr *` of the
///     RC instruction) plus a static label and a `SourceLoc`.
///  3. Events are recorded at the heap's public API boundary, *before*
///     classification — so a sink sees exactly the calls the machine
///     made, and the stats-invariant test can check the heap's
///     classification counters against them.
///
/// Event vocabulary:
///
///   DupCall / DropCall / DecRefCall / IsUniqueCall — one per call of the
///     corresponding `Heap` entry point, regardless of how the heap
///     classifies it (heap cell, non-heap immediate, GC mode). Internal
///     cascades (dropping children of a freed cell) are NOT events, to
///     match the API-level semantics of `HeapStats`.
///   Alloc / Free — cell lifetime, with the payload size in bytes so a
///     sink can shadow the heap's LiveBytes/PeakBytes accounting.
///   ReuseHit / ReuseMiss — reuse-token consumption in `Con@ru`. A hit
///     deliberately emits neither Alloc nor Free: in-place reuse must
///     leave LiveBytes unchanged (the satellite-6 invariant).
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_SUPPORT_TELEMETRY_H
#define PERCEUS_SUPPORT_TELEMETRY_H

#include "support/Diagnostics.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perceus {

class JsonWriter;

/// What happened. See the file comment for exact semantics.
enum class RcEvent : uint8_t {
  DupCall,
  DropCall,
  DecRefCall,
  IsUniqueCall,
  Alloc,
  Free,
  ReuseHit,
  ReuseMiss,
};

constexpr unsigned NumRcEvents = 8;

/// Printable name of an event kind ("dup", "alloc", ...).
const char *rcEventName(RcEvent E);

/// Receiver for RC events. Non-owning and externally synchronized: the
/// heap and machine call it from the interpreter thread only.
class StatsSink {
public:
  virtual ~StatsSink();

  /// Stamps the site subsequent events are attributed to. The machine
  /// calls this right before executing an RC/alloc instruction; events
  /// recorded until the next stamp belong to that site. \p Site is an
  /// opaque identity (the instruction's `Expr *`), \p Label a static
  /// string ("dup", "con@ru", "app", ...), \p Loc its surface location.
  void setSite(const void *Site, const char *Label, SourceLoc Loc) {
    CurSite = Site;
    CurLabel = Label;
    CurLoc = Loc;
  }

  /// Records one event. \p Bytes is the payload size for Alloc/Free and
  /// ReuseHit, zero otherwise.
  virtual void record(RcEvent E, size_t Bytes) = 0;

protected:
  const void *CurSite = nullptr;
  const char *CurLabel = nullptr;
  SourceLoc CurLoc{};
};

/// Sink that only tallies event totals, plus a shadow byte ledger
/// reconstructed purely from Alloc/Free events. The stats-invariant and
/// reuse-accounting tests compare these against the heap's own counters:
/// if the heap ever double-counts a reuse or leaks an alloc past the
/// hook, the two ledgers disagree.
class CountingSink : public StatsSink {
public:
  void record(RcEvent E, size_t Bytes) override;

  uint64_t count(RcEvent E) const {
    return Counts[static_cast<unsigned>(E)];
  }
  uint64_t totalRcCalls() const {
    return count(RcEvent::DupCall) + count(RcEvent::DropCall) +
           count(RcEvent::DecRefCall) + count(RcEvent::IsUniqueCall);
  }

  /// Shadow ledger: bytes currently live / high-water mark, as implied
  /// by the event stream alone.
  size_t shadowLiveBytes() const { return ShadowLive; }
  size_t shadowPeakBytes() const { return ShadowPeak; }

private:
  uint64_t Counts[NumRcEvents] = {};
  size_t ShadowLive = 0;
  size_t ShadowPeak = 0;
};

/// Sink that builds a per-site table: for every stamping site, how many
/// of each event it caused. This is the per-site table of the
/// `perc --stats-json` payload.
class SiteTableSink : public StatsSink {
public:
  struct Row {
    const void *Site = nullptr;
    std::string Label;
    SourceLoc Loc;
    uint64_t Counts[NumRcEvents] = {};
    uint64_t Bytes = 0; ///< total bytes allocated at this site
  };

  void record(RcEvent E, size_t Bytes) override;

  const std::vector<Row> &rows() const { return Rows; }
  const Row &unattributed() const { return Orphan; }

  /// Emits the table as a JSON array value (caller owns surrounding
  /// object structure): [{"site":"0x..","label":..,"line":..,"col":..,
  /// "dup":..,...,"bytes":..}, ...].
  void writeJson(JsonWriter &W) const;

  /// Human-readable table, one line per site, for stderr reports.
  std::string toText() const;

private:
  Row &rowFor(const void *Site);

  std::vector<Row> Rows; // insertion order, for stable reports
  std::unordered_map<const void *, size_t> Index; // Site -> Rows slot
  Row Orphan;            // events recorded with no site stamped
  const void *LastSite = nullptr;
  size_t LastSlot = 0;   // one-entry cache: sites repeat in loops
};

} // namespace perceus

#endif // PERCEUS_SUPPORT_TELEMETRY_H
