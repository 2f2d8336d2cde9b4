// Telemetry: lock-free per-tenant and per-worker counters plus a
// log-scale batch-latency histogram, snapshotted on demand.
package engine

import (
	"maps"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tenantCounters accumulates one tenant's traffic accounting. All
// fields are written with atomics from submitters and workers.
type tenantCounters struct {
	Submitted     atomic.Uint64 // frames offered to SubmitBatch
	RateLimited   atomic.Uint64 // dropped by the token bucket at ingress
	QueueFull     atomic.Uint64 // tail-dropped at a full ring
	Processed     atomic.Uint64 // frames the pipeline forwarded
	PipelineDrops atomic.Uint64 // frames the pipeline discarded
	Bytes         atomic.Uint64 // forwarded bytes

	// Egress-scheduling accounting (zero unless egress weights are
	// configured): frames entering the per-worker WFQ+PIFO stage,
	// frames shed by it (push-out displacement or full-queue reject),
	// and frames/bytes actually delivered in rank order.
	EgressQueued    atomic.Uint64
	EgressDropped   atomic.Uint64
	EgressDelivered atomic.Uint64
	EgressBytes     atomic.Uint64
}

// workerCounters accumulates one worker's service accounting. Batch
// timing is sampled (see worker.run), so BusyNs covers Sampled batches.
type workerCounters struct {
	Batches atomic.Uint64
	Frames  atomic.Uint64
	Sampled atomic.Uint64
	BusyNs  atomic.Uint64
	// ReconfigApplied counts reconfiguration commands this shard
	// applied cleanly; ReconfigFailed counts control operations that
	// returned an error (malformed command, bad placement, ...).
	ReconfigApplied atomic.Uint64
	ReconfigFailed  atomic.Uint64
	latency         latHist
}

// latHist is a log2-bucketed latency histogram: bucket i counts
// observations with bits.Len64(ns) == i, i.e. [2^(i-1), 2^i).
type latHist struct {
	buckets [64]atomic.Uint64
}

//menshen:hotpath
func (h *latHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
}

// snapshotInto copies the live bucket counters into an exported
// snapshot value.
//
//menshen:hotpath
func (h *latHist) snapshotInto(dst *LatencyHistogram) {
	for i := range h.buckets {
		dst.Buckets[i] = h.buckets[i].Load()
	}
}

// LatencyHistogram is a point-in-time copy of a worker's log2-bucketed
// batch-service-latency histogram. Buckets[i] counts sampled batches
// whose service time ns satisfied bits.Len64(ns) == i, i.e. fell in
// [2^(i-1), 2^i) nanoseconds. Counts are cumulative since engine
// start; use Sub to window two snapshots into a per-interval
// histogram (what a metrics scraper wants for interval-accurate
// p50/p99). SumNs is the total sampled service time, so a Prometheus
// exporter can emit the histogram's _sum alongside the buckets.
type LatencyHistogram struct {
	// Buckets holds the per-bucket observation counts (log2 scale, see
	// the type comment).
	Buckets [64]uint64
	// SumNs is the summed service time of the sampled batches, in
	// nanoseconds.
	SumNs uint64
}

// Count is the histogram's total observation count.
func (h *LatencyHistogram) Count() uint64 {
	var total uint64
	for _, c := range h.Buckets {
		total += c
	}
	return total
}

// Quantile returns the approximate q-quantile (geometric bucket
// midpoint). q is clamped to [0, 1]; an empty histogram returns 0 —
// never NaN — so pollers can render an idle or freshly windowed
// worker without special-casing.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if c != 0 && seen > rank {
			if i == 0 {
				return 0
			}
			lo := math.Exp2(float64(i - 1))
			hi := math.Exp2(float64(i))
			return time.Duration(math.Sqrt(lo * hi)) // geometric midpoint of the bucket
		}
	}
	return 0
}

// Sub returns the windowed histogram h - prev: the observations that
// arrived after prev was taken. Both snapshots must come from the same
// worker with h taken later; buckets are monotonic, so any apparent
// underflow (a misuse) saturates at zero rather than wrapping.
func (h *LatencyHistogram) Sub(prev *LatencyHistogram) LatencyHistogram {
	var d LatencyHistogram
	for i := range h.Buckets {
		if h.Buckets[i] > prev.Buckets[i] {
			d.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
		}
	}
	if h.SumNs > prev.SumNs {
		d.SumNs = h.SumNs - prev.SumNs
	}
	return d
}

// telemetry is the engine-wide registry.
type telemetry struct {
	// tenants is an immutable map, replaced whole (under mu) when a
	// tenant's first frame arrives: every submit and every batch looks a
	// tenant up, and none of them should write a shared word to do it.
	mu      sync.Mutex
	tenants atomic.Pointer[map[uint16]*tenantCounters]
	// hasLimits short-circuits the rate-limiter (and its clock read) on
	// the submit fast path until the first SetTenantLimit call.
	hasLimits atomic.Bool
	// reconfigFrames counts raw reconfiguration frames accepted off the
	// submit path and diverted to the control plane.
	reconfigFrames atomic.Uint64
	// bytesCopied counts ingress bytes copied into pooled buffers by
	// Submit/SubmitBatch; the owned (zero-copy) path never adds to it.
	bytesCopied atomic.Uint64

	// §4.1 reliability accounting (verify.go): retry bursts re-sent by
	// the verified paths, verified loads that exhausted their retry
	// budget, commands the injected fault plan lost or corrupted, and
	// watchdog stall detections.
	reconfigRetries atomic.Uint64
	verifyFailures  atomic.Uint64
	cmdFaults       atomic.Uint64
	degradedEvents  atomic.Uint64
}

func newTelemetry() *telemetry {
	t := &telemetry{}
	t.tenants.Store(&map[uint16]*tenantCounters{})
	return t
}

// tenant returns (creating if needed) a tenant's counter block.
//
//menshen:hotpath
func (t *telemetry) tenant(id uint16) *tenantCounters {
	if tc := (*t.tenants.Load())[id]; tc != nil {
		return tc
	}
	return t.addTenant(id)
}

// addTenant is the locked slow path behind tenant.
func (t *telemetry) addTenant(id uint16) *tenantCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.tenants.Load()
	if tc := old[id]; tc != nil {
		return tc
	}
	next := maps.Clone(old)
	tc := &tenantCounters{}
	next[id] = tc
	t.tenants.Store(&next)
	return tc
}

// TenantStats is a point-in-time copy of one tenant's counters.
type TenantStats struct {
	// Submitted counts frames offered to Submit/SubmitBatch.
	Submitted uint64
	// RateLimited counts frames the ingress token bucket rejected.
	RateLimited uint64
	// QueueFull counts frames tail-dropped at a full RX ring.
	QueueFull uint64
	// Processed counts frames the pipeline forwarded.
	Processed uint64
	// PipelineDrops counts frames the pipeline discarded.
	PipelineDrops uint64
	// Bytes counts forwarded bytes.
	Bytes uint64

	// Egress scheduling counters (all zero when no egress weights are
	// set). Note Processed counts pipeline output — a frame shed at
	// egress appears in both Processed and EgressDropped.

	// EgressQueued counts frames admitted to the §3.5 egress stage.
	EgressQueued uint64
	// EgressDropped counts frames the egress stage shed (push-out
	// displacement or full-queue reject).
	EgressDropped uint64
	// EgressDelivered counts frames transmitted in weighted fair order.
	EgressDelivered uint64
	// EgressBytes counts bytes transmitted in weighted fair order.
	EgressBytes uint64
}

// Dropped is the tenant's total drop count across all causes.
func (s TenantStats) Dropped() uint64 {
	return s.RateLimited + s.QueueFull + s.PipelineDrops + s.EgressDropped
}

// WorkerStats is a point-in-time copy of one worker's counters.
type WorkerStats struct {
	// Batches counts pipeline batches this worker serviced.
	Batches uint64
	// Frames counts frames across those batches.
	Frames uint64
	// Busy estimates the cumulative time spent inside ProcessBatch,
	// extrapolated from the sampled batches.
	Busy time.Duration
	// P50BatchLatency approximates the median batch service time
	// (log-bucket midpoint).
	P50BatchLatency time.Duration
	// P99BatchLatency approximates the 99th-percentile batch service
	// time (log-bucket midpoint).
	P99BatchLatency time.Duration
	// Pending is the point-in-time frame count queued in the shard's RX
	// rings (including frames held by tenant fences).
	Pending int
	// EgressBacklog is the point-in-time frame count queued in the
	// shard's §3.5 egress PIFO (0 when egress scheduling is off).
	EgressBacklog int
	// Sampled counts the batches whose service time was actually
	// clocked (timing is sampled 1-in-8); it equals Latency.Count().
	Sampled uint64
	// Latency is the cumulative-since-start histogram behind
	// P50BatchLatency/P99BatchLatency. Window two snapshots with
	// LatencyHistogram.Sub for scrape-interval quantiles.
	Latency LatencyHistogram
	// ReconfigGen is the shard's applied reconfiguration generation;
	// when it equals Stats.ReconfigIssued the shard has applied every
	// control operation issued so far.
	ReconfigGen uint64
	// ReconfigApplied counts this shard's cleanly applied
	// reconfiguration commands.
	ReconfigApplied uint64
	// ReconfigFailed counts this shard's failed control operations.
	ReconfigFailed uint64
	// ReconfigDelivered is the shard's §4.1 delivered-command counter —
	// the per-replica mirror of reconfig.DaisyChain.Counter() that the
	// verified reconfiguration paths poll: it counts commands that
	// actually reached the shard (injected losses never increment it),
	// so issued-minus-delivered is the loss the retry machinery
	// re-sends.
	ReconfigDelivered uint64
	// Stalled reports whether the watchdog currently considers this
	// shard stuck: pending work but no progress for at least
	// Config.StallTimeout. Always false with the watchdog disabled.
	Stalled bool
	// SinceProgress is how long ago the watchdog last observed this
	// shard make progress (zero with the watchdog disabled, and
	// watchdog-interval granular otherwise).
	SinceProgress time.Duration
}

// AvgBatch is the mean frames per batch.
func (s WorkerStats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Frames) / float64(s.Batches)
}

// IngressStats is one ingress transport's counter snapshot: the
// socket-side accounting of a frame source feeding the engine through
// the borrowed-buffer path (internal/ingress). Sources register a fill
// function with Engine.RegisterIngress; StatsInto then appends one of
// these per transport into Stats.Ingress. The counters partition every
// byte read off the socket into exactly one fate — the "counted, never
// silent" discipline extended to the network edge:
//
//	datagrams = Received + ShortDropped + OversizeDropped
//	Received = Submitted + SubmitRejected
//
// so client-sent == delivered + every counted drop class holds end to
// end on lossless transports (TCP, Unix datagram). Reads is not a fate
// but the cost side of the same ledger: datagrams / Reads is how many
// frames each RX syscall carried.
type IngressStats struct {
	// Transport is the transport kind ("udp", "tcp", "unixgram",
	// "trafficgen", ...).
	Transport string
	// Listen is the bound listen address (socket path for unixgram).
	Listen string
	// Reads counts RX syscalls that returned at least one datagram
	// (one recvmmsg may return a burst). Stream transports leave it 0.
	Reads uint64
	// Received counts well-formed frames read off the transport and
	// offered to the engine.
	Received uint64
	// ReceivedBytes counts the bytes of those frames.
	ReceivedBytes uint64
	// Submitted counts received frames the engine accepted
	// (SubmitOwned returned true).
	Submitted uint64
	// SubmitRejected counts received frames the engine refused —
	// rate-limited or ring-full; the engine's per-tenant counters say
	// which. The buffer was reclaimed into the pool either way.
	SubmitRejected uint64
	// ShortDropped counts frames below the transport's minimum frame
	// size, dropped before submission.
	ShortDropped uint64
	// OversizeDropped counts datagrams above the transport's maximum
	// frame size, dropped before submission (stream transports reject
	// oversize lengths as DecodeErrors instead).
	OversizeDropped uint64
	// DecodeErrors counts unrecoverable stream-framing violations
	// (zero or oversize length prefix); each closes its connection.
	DecodeErrors uint64
	// ConnsAccepted counts accepted stream connections.
	ConnsAccepted uint64
	// AcceptRetries counts transient accept failures retried under the
	// capped-backoff schedule.
	AcceptRetries uint64
	// ConnResets counts stream connections that died mid-stream (read
	// error or a cut mid-frame): the in-flight remainder is the
	// counted — not silent — loss of a lossy link.
	ConnResets uint64
}

// Stats is a snapshot of the whole engine.
type Stats struct {
	// Tenants maps tenant (module) ID to its counters.
	Tenants map[uint16]TenantStats
	// Workers holds per-shard service stats, indexed by worker ID.
	Workers []WorkerStats
	// Ingress holds one counter snapshot per registered ingress
	// transport (RegisterIngress); nil/empty when no sources feed this
	// engine.
	Ingress []IngressStats
	// Uptime is the time since the engine started.
	Uptime time.Duration

	// ReconfigIssued is the latest control-plane generation issued.
	ReconfigIssued uint64
	// ReconfigApplied sums the per-shard applied-command counters.
	ReconfigApplied uint64
	// ReconfigFailed sums the per-shard failed-operation counters.
	ReconfigFailed uint64
	// ReconfigFrames counts raw reconfiguration frames accepted via
	// Submit.
	ReconfigFrames uint64
	// Updating is the engine-level per-tenant update bitmap (bit
	// tenant&31 set while the tenant is fenced by a
	// Begin/EndTenantUpdate window).
	Updating uint32

	// Buffer-pool and zero-copy accounting: a steady-state engine
	// shows a pool hit rate near 1 and, on the owned path, no
	// copied-bytes growth at all.

	// PoolHits counts buffer requests served from the pool.
	PoolHits uint64
	// PoolMisses counts buffer requests that had to allocate.
	PoolMisses uint64
	// BytesCopied is the total ingress bytes copied by the non-owned
	// submit paths (Submit/SubmitBatch/InjectBatch).
	BytesCopied uint64

	// Reliability accounting (§4.1 loss recovery and the watchdog).

	// ReconfigRetries counts retry bursts the verified paths re-sent
	// after a counter poll detected command loss.
	ReconfigRetries uint64
	// VerifyFailures counts verified loads that exhausted their retry
	// budget (each returned a typed error wrapping ctrlplane.ErrVerify
	// and rolled back to the last-known-good configuration).
	VerifyFailures uint64
	// CmdFaultsInjected counts reconfiguration commands the installed
	// fault plan (SetReconfigFault) dropped or corrupted on fan-out.
	CmdFaultsInjected uint64
	// DegradedWorkers is the number of shards the watchdog currently
	// considers stalled; the engine is degraded while it is non-zero.
	DegradedWorkers int
	// DegradedEvents counts stall detections since start (a shard that
	// stalls, recovers, and stalls again counts twice).
	DegradedEvents uint64
}

// PoolHitRate is the fraction of buffer requests served from the pool,
// in [0, 1]; 0 when no requests have been made.
func (s Stats) PoolHitRate() float64 {
	total := s.PoolHits + s.PoolMisses
	if total == 0 {
		return 0
	}
	return float64(s.PoolHits) / float64(total)
}

// TenantIDs returns the snapshot's tenant IDs in ascending order.
func (s Stats) TenantIDs() []uint16 {
	ids := make([]uint16, 0, len(s.Tenants))
	for id := range s.Tenants {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Totals sums the per-tenant counters.
func (s Stats) Totals() TenantStats {
	var tot TenantStats
	for _, ts := range s.Tenants {
		tot.Submitted += ts.Submitted
		tot.RateLimited += ts.RateLimited
		tot.QueueFull += ts.QueueFull
		tot.Processed += ts.Processed
		tot.PipelineDrops += ts.PipelineDrops
		tot.Bytes += ts.Bytes
		tot.EgressQueued += ts.EgressQueued
		tot.EgressDropped += ts.EgressDropped
		tot.EgressDelivered += ts.EgressDelivered
		tot.EgressBytes += ts.EgressBytes
	}
	return tot
}

// EgressShare reports a tenant's achieved share of delivered egress
// bytes, in [0, 1] — the quantity §3.5's weighted sharing is about.
// It returns 0 when nothing has been delivered (egress scheduling off
// or no traffic).
func (s Stats) EgressShare(tenant uint16) float64 {
	var total uint64
	for _, ts := range s.Tenants {
		total += ts.EgressBytes
	}
	if total == 0 {
		return 0
	}
	return float64(s.Tenants[tenant].EgressBytes) / float64(total)
}

// snapshotInto fills st, reusing its tenant map and worker slice when
// present so a caller polling stats in a loop (the serve CLI, the obs
// exporter, a monitoring goroutine) allocates only on its first call —
// not one map plus one slice per poll. The receiver is the caller's:
// it is written only during the call and never retained, but two
// goroutines must not poll into the same receiver concurrently.
//
//menshen:hotpath
func (t *telemetry) snapshotInto(st *Stats, workers []*worker, uptime time.Duration) {
	if st.Tenants == nil {
		st.Tenants = make(map[uint16]TenantStats) //menshen:allocok first call on a fresh receiver; reused afterwards
	} else {
		clear(st.Tenants)
	}
	st.Workers = st.Workers[:0]
	st.Uptime = uptime
	st.ReconfigApplied = 0
	st.ReconfigFailed = 0
	for id, tc := range *t.tenants.Load() {
		st.Tenants[id] = TenantStats{
			Submitted:       tc.Submitted.Load(),
			RateLimited:     tc.RateLimited.Load(),
			QueueFull:       tc.QueueFull.Load(),
			Processed:       tc.Processed.Load(),
			PipelineDrops:   tc.PipelineDrops.Load(),
			Bytes:           tc.Bytes.Load(),
			EgressQueued:    tc.EgressQueued.Load(),
			EgressDropped:   tc.EgressDropped.Load(),
			EgressDelivered: tc.EgressDelivered.Load(),
			EgressBytes:     tc.EgressBytes.Load(),
		}
	}
	for _, w := range workers {
		ws := WorkerStats{
			Batches:           w.stats.Batches.Load(),
			Frames:            w.stats.Frames.Load(),
			Sampled:           w.stats.Sampled.Load(),
			ReconfigGen:       w.genApplied.Load(),
			ReconfigApplied:   w.stats.ReconfigApplied.Load(),
			ReconfigFailed:    w.stats.ReconfigFailed.Load(),
			ReconfigDelivered: w.cmdSeen.Load(),
			Stalled:           w.stalled.Load(),
		}
		if ns := w.lastProgressNano.Load(); ns > 0 {
			ws.SinceProgress = time.Since(time.Unix(0, ns))
		}
		w.stats.latency.snapshotInto(&ws.Latency)
		ws.Latency.SumNs = w.stats.BusyNs.Load()
		ws.P50BatchLatency = ws.Latency.Quantile(0.50)
		ws.P99BatchLatency = ws.Latency.Quantile(0.99)
		ws.Pending = w.pending()
		ws.EgressBacklog = int(w.egBacklog.Load())
		st.ReconfigApplied += ws.ReconfigApplied
		st.ReconfigFailed += ws.ReconfigFailed
		if ws.Sampled > 0 {
			// float64 keeps long-running engines from overflowing the
			// uint64 product of two growing counters.
			ws.Busy = time.Duration(float64(ws.Latency.SumNs) / float64(ws.Sampled) * float64(ws.Batches))
		}
		st.Workers = append(st.Workers, ws) //menshen:allocok grows to the worker count on the first call; reused afterwards
	}
}
