// Package pmem is a software model of a persistent-memory system built
// from Optane-DCPMM-like devices, faithful to the architecture described
// in §2.1 of the CCL-BTree paper (EuroSys '24):
//
//	CPU cache (64 B cachelines, volatile under ADR)
//	   │ clwb / sfence
//	   ▼
//	WPQ + XPBuffer (write-combining, 256 B XPLines, power-fail protected)
//	   │ 256 B read-modify-write
//	   ▼
//	3D-XPoint media
//
// The model provides three things the real hardware provides and Go does
// not:
//
//  1. Persistence semantics. Stores are volatile until flushed and fenced
//     (ADR mode). Pool.Crash simulates a power failure: every store that
//     was not both flushed and fenced (or evicted by the cache model) is
//     rolled back, everything else survives. eADR mode persists stores
//     immediately.
//
//  2. Hardware counters. Like ipmctl on real Optane, the pool counts
//     bytes arriving at the XPBuffer (cacheline flushes) and bytes
//     written to media (XPLine write-backs), from which the harness
//     computes CLI- and XBI-amplification exactly as defined in §2.1.
//     Media writes are attributed to a per-thread Tag so experiments can
//     split amplification by source (leaf nodes vs WAL, Fig 13b).
//
//  3. A virtual-time cost model. Every access charges a latency to the
//     issuing Thread, and every media-level XPLine operation occupies its
//     DIMM for a service time through a shared bandwidth arbiter. With
//     many threads the media becomes the bottleneck and throughput is
//     bounded by the number of XPLine flushes, not cacheline flushes —
//     the central observation of §2.2 (Fig 2).
//
// All data access is 8-byte-word granular and atomic, which matches how
// persistent indexes program real PM (8 B failure-atomic stores) and keeps
// optimistic concurrency race-free under the Go memory model.
//
// # Host-memory layout
//
// The media is sparse: each device is a table of 64 KB pages, a page is
// allocated (by CAS, so racing first writers agree) on the first Store,
// WriteRange or crash rollback that lands in it, and a page never
// written reads as zeros without being allocated. LoadPersistent skips
// zero words bound for unallocated pages, so a reloaded image stays
// sparse too. A pool's host footprint therefore tracks the PM it has
// touched, not Config.DeviceBytes. The dirty-line table stores each
// line's crash pre-image inline as a fixed 64 B array, and flush
// snapshots travel by value, so the steady-state access and persistence
// paths allocate nothing. None of this is visible on the virtual clock.
//
// # Persistence contract
//
// Code using this package must obey the discipline real ADR hardware
// imposes; the static analyzer (cmd/persistlint) and the StrictPersist
// runtime checks enforce complementary halves of it:
//
//   - Every Store/WriteRange that must survive a crash is followed by a
//     Flush of the covering cachelines and then a Fence (or a single
//     Persist) before the enclosing operation declares success. A store
//     without a reachable flush is volatile until the cache model
//     happens to evict it (persistlint rule PL001).
//
//   - A Flush alone orders nothing: the write-back becomes durable only
//     at the next Fence on the same Thread. Flush with no following
//     Fence/Persist is an unretired clwb (rule PL002; at runtime,
//     Thread.Release and Pool.Close panic on nonempty pending sets).
//
//   - Under eADR, flushes are unnecessary — stores are durable once
//     globally visible — so a Flush or Persist that executes only on an
//     eADR-mode branch is dead code (rule PL003). Branching on the mode
//     to *skip* flushes is the intended pattern and is not flagged.
//
//   - A Thread is a single-owner handle. It may be handed from one
//     goroutine to another, but never used by two at once; its pending
//     flush set and virtual clock are unsynchronized by design (rule
//     PL004 catches escapes into goroutine closures and channel sends;
//     StrictPersist catches dynamic overlap).
//
// Addresses passed to Load/Store/ReadRange/WriteRange must be 8-byte
// aligned; in strict mode unaligned addresses panic instead of being
// silently truncated to the containing word.
//
// Config.StrictPersist arms the runtime half: Thread.Release panics if
// flushes are pending, Pool.Close panics on pending flushes or dirty
// cachelines outside regions declared scratch with Pool.DeclareVolatile,
// and concurrent Thread use panics with both call sites identified.
// Test suites should run strict; production-shaped benchmarks leave it
// off to keep the hot paths branch-cheap.
package pmem
