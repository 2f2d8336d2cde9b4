// Prometheus text-exposition exporter over engine.Stats snapshots.
// Hand-rolled on the standard library: series are appended into a
// retained byte buffer with strconv, so a warm scrape allocates
// nothing — the engine's 0 allocs/op steady state survives being
// watched.
package obs

import (
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/faultinject"
)

// Source is one engine an Exporter scrapes: its alloc-free snapshot
// func (Engine.StatsInto) plus the node label its series carry.
type Source struct {
	// Node is the value of the `node` label on every series from this
	// source; "" omits the label (single-engine deployments).
	Node string
	// StatsInto fills a reused snapshot; wire Engine.StatsInto (or
	// the facade's) here.
	StatsInto func(*engine.Stats)
	// LinkFaults, when non-nil, supplies the node's per-egress-link
	// fault-injector tallies (fabric.FaultLink installs them) for the
	// menshen_link_* families; nil omits those series for this node.
	LinkFaults func() map[uint8]faultinject.Counts
}

// NodeStats is one node's rendered input to WriteMetrics: a snapshot
// plus the optional per-worker windowed latency histograms (the delta
// since the previous scrape) behind the window_p50/p99 gauges.
type NodeStats struct {
	// Node is the `node` label value ("" omits the label).
	Node string
	// Stats is the node's telemetry snapshot.
	Stats *engine.Stats
	// Window holds each worker's latency delta since the previous
	// scrape, parallel to Stats.Workers; nil skips the windowed
	// quantile gauges.
	Window []engine.LatencyHistogram
	// LinkFaults maps egress-port → fault-injector tallies for links
	// under a fault plan; nil or empty skips the menshen_link_*
	// families for this node.
	LinkFaults map[uint8]faultinject.Counts
}

// Exporter renders one or more engines' telemetry in Prometheus text
// exposition format. It owns a reused snapshot per source and the
// previous scrape's latency histograms, so Collect is allocation-free
// once warm and the windowed p50/p99 gauges reflect the scrape
// interval rather than the whole run. Collect is serialized
// internally; any goroutine may call it.
type Exporter struct {
	mu      sync.Mutex
	sources []Source
	st      []engine.Stats
	prev    [][]engine.LatencyHistogram
	win     [][]engine.LatencyHistogram
	nodes   []NodeStats
	scratch metricsScratch
	buf     []byte
}

// NewExporter returns an Exporter scraping the given sources in
// order.
func NewExporter(sources ...Source) *Exporter {
	return &Exporter{
		sources: sources,
		st:      make([]engine.Stats, len(sources)),
		prev:    make([][]engine.LatencyHistogram, len(sources)),
		win:     make([][]engine.LatencyHistogram, len(sources)),
		nodes:   make([]NodeStats, len(sources)),
	}
}

// Collect snapshots every source and writes one exposition document —
// every family grouped across nodes, HELP/TYPE once per family — to
// w.
func (e *Exporter) Collect(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.sources {
		e.sources[i].StatsInto(&e.st[i])
		workers := e.st[i].Workers
		if cap(e.prev[i]) < len(workers) {
			grown := make([]engine.LatencyHistogram, len(workers))
			copy(grown, e.prev[i])
			e.prev[i] = grown
			e.win[i] = make([]engine.LatencyHistogram, len(workers))
		}
		e.prev[i] = e.prev[i][:len(workers)]
		e.win[i] = e.win[i][:len(workers)]
		for wi := range workers {
			cur := &workers[wi].Latency
			e.win[i][wi] = cur.Sub(&e.prev[i][wi])
			e.prev[i][wi] = *cur
		}
		e.nodes[i] = NodeStats{Node: e.sources[i].Node, Stats: &e.st[i], Window: e.win[i]}
		if lf := e.sources[i].LinkFaults; lf != nil {
			e.nodes[i].LinkFaults = lf()
		}
	}
	e.buf = appendMetrics(e.buf[:0], e.nodes, &e.scratch)
	_, err := w.Write(e.buf)
	return err
}

// WriteMetrics renders prepared snapshots as one exposition document.
// It is the stateless core of Exporter.Collect, exported for tests
// and for callers that manage their own snapshots.
func WriteMetrics(w io.Writer, nodes []NodeStats) error {
	var scratch metricsScratch
	_, err := w.Write(appendMetrics(nil, nodes, &scratch))
	return err
}

// metricsScratch holds the per-node sorted tenant-ID slices and the
// series buffer reused across scrapes (kept out of appendMetrics'
// frame so nothing escapes per call).
type metricsScratch struct {
	ids [][]uint16
	sb  seriesBuf
}

// seriesBuf accumulates exposition lines. All appends go through
// strconv — no fmt, no intermediate strings.
type seriesBuf struct {
	b      []byte
	labels int
}

// family emits the # HELP and # TYPE header of a metric family.
func (s *seriesBuf) family(name, help, typ string) {
	s.b = append(s.b, "# HELP "...)
	s.b = append(s.b, name...)
	s.b = append(s.b, ' ')
	s.b = appendEscapedHelp(s.b, help)
	s.b = append(s.b, "\n# TYPE "...)
	s.b = append(s.b, name...)
	s.b = append(s.b, ' ')
	s.b = append(s.b, typ...)
	s.b = append(s.b, '\n')
}

// start opens one series line: the metric name plus, when node is
// non-empty, its node label.
func (s *seriesBuf) start(name, node string) {
	s.b = append(s.b, name...)
	s.labels = 0
	if node != "" {
		s.labelStr("node", node)
	}
}

func (s *seriesBuf) sep() {
	if s.labels == 0 {
		s.b = append(s.b, '{')
	} else {
		s.b = append(s.b, ',')
	}
	s.labels++
}

func (s *seriesBuf) labelStr(name, val string) {
	s.sep()
	s.b = append(s.b, name...)
	s.b = append(s.b, '=', '"')
	s.b = appendEscapedLabel(s.b, val)
	s.b = append(s.b, '"')
}

func (s *seriesBuf) labelUint(name string, v uint64) {
	s.sep()
	s.b = append(s.b, name...)
	s.b = append(s.b, '=', '"')
	s.b = strconv.AppendUint(s.b, v, 10)
	s.b = append(s.b, '"')
}

func (s *seriesBuf) labelLe(bound float64) {
	s.sep()
	s.b = append(s.b, `le="`...)
	if math.IsInf(bound, +1) {
		s.b = append(s.b, "+Inf"...)
	} else {
		s.b = strconv.AppendFloat(s.b, bound, 'g', -1, 64)
	}
	s.b = append(s.b, '"')
}

func (s *seriesBuf) closeLabels() {
	if s.labels > 0 {
		s.b = append(s.b, '}')
	}
	s.b = append(s.b, ' ')
}

func (s *seriesBuf) valUint(v uint64) {
	s.closeLabels()
	s.b = strconv.AppendUint(s.b, v, 10)
	s.b = append(s.b, '\n')
}

func (s *seriesBuf) valFloat(v float64) {
	s.closeLabels()
	s.b = strconv.AppendFloat(s.b, v, 'g', -1, 64)
	s.b = append(s.b, '\n')
}

// appendEscapedLabel escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func appendEscapedLabel(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// appendEscapedHelp escapes HELP text: backslash and newline only.
func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// engineScalar is one engine-level family rendered per node.
type engineScalar struct {
	name, help, typ string
	val             func(st *engine.Stats, sb *seriesBuf)
}

var engineScalars = []engineScalar{
	{"menshen_uptime_seconds", "Seconds since the engine started.", "gauge",
		func(st *engine.Stats, sb *seriesBuf) { sb.valFloat(st.Uptime.Seconds()) }},
	{"menshen_reconfig_issued_generation", "Latest control-plane generation issued.", "gauge",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.ReconfigIssued) }},
	{"menshen_reconfig_applied_total", "Reconfiguration commands applied cleanly, summed over shards.", "counter",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.ReconfigApplied) }},
	{"menshen_reconfig_failed_total", "Failed control operations, summed over shards.", "counter",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.ReconfigFailed) }},
	{"menshen_reconfig_frames_total", "Raw reconfiguration frames accepted off the submit path.", "counter",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.ReconfigFrames) }},
	{"menshen_tenant_updating_bitmap", "Per-tenant update fence bitmap (bit tenant&31 set while fenced).", "gauge",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(uint64(st.Updating)) }},
	{"menshen_pool_hits_total", "Buffer requests served from the pool.", "counter",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.PoolHits) }},
	{"menshen_pool_misses_total", "Buffer requests that had to allocate.", "counter",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.PoolMisses) }},
	{"menshen_pool_hit_rate", "Fraction of buffer requests served from the pool, in [0,1].", "gauge",
		func(st *engine.Stats, sb *seriesBuf) { sb.valFloat(st.PoolHitRate()) }},
	{"menshen_ingress_copied_bytes_total", "Ingress bytes copied by the non-owned submit paths.", "counter",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.BytesCopied) }},
	{"menshen_reconfig_retries_total", "Verified-reconfiguration retry bursts (suffix re-sends after a counter mismatch).", "counter",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.ReconfigRetries) }},
	{"menshen_reconfig_verify_failures_total", "Verified reconfigurations that exhausted their retry budget and rolled back.", "counter",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.VerifyFailures) }},
	{"menshen_fault_injected_total", "Reconfiguration commands consumed (dropped or corrupted) by the installed fault plan.", "counter",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.CmdFaultsInjected) }},
	{"menshen_degraded_workers", "Shards currently flagged stalled by the watchdog.", "gauge",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(uint64(st.DegradedWorkers)) }},
	{"menshen_degraded_events_total", "Times the watchdog flagged a shard as stalled.", "counter",
		func(st *engine.Stats, sb *seriesBuf) { sb.valUint(st.DegradedEvents) }},
}

// tenantScalar is one per-tenant family.
type tenantScalar struct {
	name, help, typ string
	val             func(st *engine.Stats, id uint16, ts engine.TenantStats, sb *seriesBuf)
}

var tenantScalars = []tenantScalar{
	{"menshen_tenant_submitted_frames_total", "Frames offered to the submit paths.", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.Submitted) }},
	{"menshen_tenant_rate_limited_frames_total", "Frames rejected by the ingress token bucket.", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.RateLimited) }},
	{"menshen_tenant_queue_full_frames_total", "Frames tail-dropped at a full RX ring.", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.QueueFull) }},
	{"menshen_tenant_forwarded_frames_total", "Frames the pipeline forwarded.", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.Processed) }},
	{"menshen_tenant_pipeline_dropped_frames_total", "Frames the pipeline discarded.", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.PipelineDrops) }},
	{"menshen_tenant_dropped_frames_total", "Total drops across all causes (rate, ring, pipeline, egress).", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.Dropped()) }},
	{"menshen_tenant_forwarded_bytes_total", "Bytes the pipeline forwarded.", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.Bytes) }},
	{"menshen_tenant_egress_queued_frames_total", "Frames admitted to the egress WFQ+PIFO stage.", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.EgressQueued) }},
	{"menshen_tenant_egress_dropped_frames_total", "Frames shed by the egress stage (push-out or reject).", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.EgressDropped) }},
	{"menshen_tenant_egress_delivered_frames_total", "Frames transmitted in weighted fair order.", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.EgressDelivered) }},
	{"menshen_tenant_egress_bytes_total", "Bytes transmitted in weighted fair order.", "counter",
		func(_ *engine.Stats, _ uint16, ts engine.TenantStats, sb *seriesBuf) { sb.valUint(ts.EgressBytes) }},
	{"menshen_tenant_egress_share", "Achieved share of delivered egress bytes, in [0,1].", "gauge",
		func(st *engine.Stats, id uint16, _ engine.TenantStats, sb *seriesBuf) {
			sb.valFloat(st.EgressShare(id))
		}},
}

// workerScalar is one per-worker family.
type workerScalar struct {
	name, help, typ string
	val             func(ws *engine.WorkerStats, sb *seriesBuf)
}

var workerScalars = []workerScalar{
	{"menshen_worker_batches_total", "Pipeline batches serviced by the shard.", "counter",
		func(ws *engine.WorkerStats, sb *seriesBuf) { sb.valUint(ws.Batches) }},
	{"menshen_worker_frames_total", "Frames serviced by the shard.", "counter",
		func(ws *engine.WorkerStats, sb *seriesBuf) { sb.valUint(ws.Frames) }},
	{"menshen_worker_busy_seconds_total", "Estimated cumulative time inside pipeline batches.", "counter",
		func(ws *engine.WorkerStats, sb *seriesBuf) { sb.valFloat(ws.Busy.Seconds()) }},
	{"menshen_worker_pending_frames", "Frames queued in the shard's RX rings.", "gauge",
		func(ws *engine.WorkerStats, sb *seriesBuf) { sb.valUint(uint64(ws.Pending)) }},
	{"menshen_worker_egress_backlog_frames", "Frames queued in the shard's egress PIFO.", "gauge",
		func(ws *engine.WorkerStats, sb *seriesBuf) { sb.valUint(uint64(ws.EgressBacklog)) }},
	{"menshen_worker_reconfig_generation", "The shard's applied reconfiguration generation.", "gauge",
		func(ws *engine.WorkerStats, sb *seriesBuf) { sb.valUint(ws.ReconfigGen) }},
	{"menshen_worker_reconfig_applied_total", "Reconfiguration commands this shard applied cleanly.", "counter",
		func(ws *engine.WorkerStats, sb *seriesBuf) { sb.valUint(ws.ReconfigApplied) }},
	{"menshen_worker_reconfig_failed_total", "Control operations that failed on this shard.", "counter",
		func(ws *engine.WorkerStats, sb *seriesBuf) { sb.valUint(ws.ReconfigFailed) }},
	{"menshen_worker_reconfig_delivered_total", "Reconfiguration commands delivered to this shard (the §4.1 verification counter).", "counter",
		func(ws *engine.WorkerStats, sb *seriesBuf) { sb.valUint(ws.ReconfigDelivered) }},
	{"menshen_worker_stalled", "1 while the watchdog flags this shard as stalled, else 0.", "gauge",
		func(ws *engine.WorkerStats, sb *seriesBuf) {
			v := uint64(0)
			if ws.Stalled {
				v = 1
			}
			sb.valUint(v)
		}},
}

// appendMetrics renders the full exposition document: every family
// exactly once, all of its series (across nodes, tenants, workers)
// grouped under it.
func appendMetrics(b []byte, nodes []NodeStats, scratch *metricsScratch) []byte {
	sb := &scratch.sb
	sb.b = b

	// Per-node sorted tenant IDs, computed once per scrape.
	for cap(scratch.ids) < len(nodes) {
		scratch.ids = append(scratch.ids[:cap(scratch.ids)], nil)
	}
	scratch.ids = scratch.ids[:len(nodes)]
	for ni := range nodes {
		ids := scratch.ids[ni][:0]
		for id := range nodes[ni].Stats.Tenants {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		scratch.ids[ni] = ids
	}

	for _, m := range engineScalars {
		sb.family(m.name, m.help, m.typ)
		for ni := range nodes {
			sb.start(m.name, nodes[ni].Node)
			m.val(nodes[ni].Stats, sb)
		}
	}

	for _, m := range tenantScalars {
		sb.family(m.name, m.help, m.typ)
		for ni := range nodes {
			st := nodes[ni].Stats
			for _, id := range scratch.ids[ni] {
				sb.start(m.name, nodes[ni].Node)
				sb.labelUint("tenant", uint64(id))
				m.val(st, id, st.Tenants[id], sb)
			}
		}
	}

	for _, m := range workerScalars {
		sb.family(m.name, m.help, m.typ)
		for ni := range nodes {
			for wi := range nodes[ni].Stats.Workers {
				sb.start(m.name, nodes[ni].Node)
				sb.labelUint("worker", uint64(wi))
				m.val(&nodes[ni].Stats.Workers[wi], sb)
			}
		}
	}

	appendLinkFaults(sb, nodes)
	appendIngress(sb, nodes)

	const histName = "menshen_worker_batch_latency_seconds"
	sb.family(histName, "Sampled batch service time (log2 buckets re-emitted cumulatively).", "histogram")
	for ni := range nodes {
		for wi := range nodes[ni].Stats.Workers {
			appendWorkerHistogram(sb, nodes[ni].Node, uint64(wi), &nodes[ni].Stats.Workers[wi].Latency)
		}
	}

	sb.family("menshen_worker_batch_latency_window_p50_seconds",
		"Median batch service time over the last scrape interval.", "gauge")
	appendWindowQuantile(sb, nodes, "menshen_worker_batch_latency_window_p50_seconds", 0.50)
	sb.family("menshen_worker_batch_latency_window_p99_seconds",
		"99th-percentile batch service time over the last scrape interval.", "gauge")
	appendWindowQuantile(sb, nodes, "menshen_worker_batch_latency_window_p99_seconds", 0.99)

	return sb.b
}

// linkFaultKind is one class column of faultinject.Counts rendered as
// a kind label on menshen_link_fault_frames_total.
type linkFaultKind struct {
	kind string
	val  func(c faultinject.Counts) uint64
}

var linkFaultKinds = []linkFaultKind{
	{"dropped", func(c faultinject.Counts) uint64 { return c.Dropped }},
	{"corrupted", func(c faultinject.Counts) uint64 { return c.Corrupted }},
	{"delayed", func(c faultinject.Counts) uint64 { return c.Delayed }},
	{"reordered", func(c faultinject.Counts) uint64 { return c.Reordered }},
}

// appendLinkFaults renders the per-link fault-injector families for
// nodes that supplied LinkFaults. Ports are walked in numeric order by
// probing the 0..255 egress space, so the output is deterministic
// without sorting allocations; both families are skipped entirely when
// no node carries an injector.
func appendLinkFaults(sb *seriesBuf, nodes []NodeStats) {
	any := false
	for ni := range nodes {
		if len(nodes[ni].LinkFaults) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	sb.family("menshen_link_frames_total", "Frames seen by the link's fault injector.", "counter")
	for ni := range nodes {
		for p := 0; p < 256; p++ {
			if c, ok := nodes[ni].LinkFaults[uint8(p)]; ok {
				sb.start("menshen_link_frames_total", nodes[ni].Node)
				sb.labelUint("link", uint64(p))
				sb.valUint(c.Seen)
			}
		}
	}
	sb.family("menshen_link_fault_frames_total",
		"Frames the link's fault injector dropped, corrupted, delayed, or reordered, by kind.", "counter")
	for _, k := range linkFaultKinds {
		for ni := range nodes {
			for p := 0; p < 256; p++ {
				if c, ok := nodes[ni].LinkFaults[uint8(p)]; ok {
					sb.start("menshen_link_fault_frames_total", nodes[ni].Node)
					sb.labelUint("link", uint64(p))
					sb.labelStr("kind", k.kind)
					sb.valUint(k.val(c))
				}
			}
		}
	}
}

// ingressScalar is one per-transport ingress family, labeled by
// transport kind and listen address.
type ingressScalar struct {
	name, help string
	val        func(is *engine.IngressStats) uint64
}

var ingressScalars = []ingressScalar{
	{"menshen_ingress_reads_total", "RX syscalls that returned at least one datagram; received frames / reads = frames per read (0 on stream transports).",
		func(is *engine.IngressStats) uint64 { return is.Reads }},
	{"menshen_ingress_received_frames_total", "Well-formed frames read off the transport and offered to the engine.",
		func(is *engine.IngressStats) uint64 { return is.Received }},
	{"menshen_ingress_received_bytes_total", "Bytes of the received frames.",
		func(is *engine.IngressStats) uint64 { return is.ReceivedBytes }},
	{"menshen_ingress_submitted_frames_total", "Received frames the engine accepted.",
		func(is *engine.IngressStats) uint64 { return is.Submitted }},
	{"menshen_ingress_rejected_frames_total", "Received frames the engine refused (rate-limited or ring-full).",
		func(is *engine.IngressStats) uint64 { return is.SubmitRejected }},
	{"menshen_ingress_short_frames_total", "Frames below the transport minimum, dropped before submission.",
		func(is *engine.IngressStats) uint64 { return is.ShortDropped }},
	{"menshen_ingress_oversize_frames_total", "Datagrams above the transport maximum, dropped before submission.",
		func(is *engine.IngressStats) uint64 { return is.OversizeDropped }},
	{"menshen_ingress_decode_errors_total", "Unrecoverable stream-framing violations (each closes its connection).",
		func(is *engine.IngressStats) uint64 { return is.DecodeErrors }},
	{"menshen_ingress_conns_accepted_total", "Stream connections accepted.",
		func(is *engine.IngressStats) uint64 { return is.ConnsAccepted }},
	{"menshen_ingress_accept_retries_total", "Transient accept failures retried under capped backoff.",
		func(is *engine.IngressStats) uint64 { return is.AcceptRetries }},
	{"menshen_ingress_conn_resets_total", "Stream connections cut mid-stream (counted in-flight loss).",
		func(is *engine.IngressStats) uint64 { return is.ConnResets }},
}

// appendIngress renders the per-transport ingress counter families for
// nodes whose engines carry registered ingress sources; with no
// ingress anywhere every family is skipped.
func appendIngress(sb *seriesBuf, nodes []NodeStats) {
	any := false
	for ni := range nodes {
		if len(nodes[ni].Stats.Ingress) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	for _, m := range ingressScalars {
		sb.family(m.name, m.help, "counter")
		for ni := range nodes {
			for ii := range nodes[ni].Stats.Ingress {
				is := &nodes[ni].Stats.Ingress[ii]
				sb.start(m.name, nodes[ni].Node)
				sb.labelStr("transport", is.Transport)
				sb.labelStr("listen", is.Listen)
				sb.valUint(m.val(is))
			}
		}
	}
}

// appendWorkerHistogram re-emits one worker's log2 latency histogram
// as cumulative Prometheus buckets: bucket i's upper bound is 2^i
// nanoseconds, rendered in seconds. Empty trailing buckets collapse
// into the +Inf bucket (which always carries the total count).
func appendWorkerHistogram(sb *seriesBuf, node string, worker uint64, h *engine.LatencyHistogram) {
	last := -1
	for i, c := range h.Buckets {
		if c != 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += h.Buckets[i]
		sb.start("menshen_worker_batch_latency_seconds_bucket", node)
		sb.labelUint("worker", worker)
		sb.labelLe(math.Exp2(float64(i)) / 1e9)
		sb.valUint(cum)
	}
	sb.start("menshen_worker_batch_latency_seconds_bucket", node)
	sb.labelUint("worker", worker)
	sb.labelLe(math.Inf(+1))
	sb.valUint(cum)
	sb.start("menshen_worker_batch_latency_seconds_sum", node)
	sb.labelUint("worker", worker)
	sb.valFloat(float64(h.SumNs) / 1e9)
	sb.start("menshen_worker_batch_latency_seconds_count", node)
	sb.labelUint("worker", worker)
	sb.valUint(cum)
}

// appendWindowQuantile emits one windowed-quantile gauge per worker,
// for the nodes that provided a window.
func appendWindowQuantile(sb *seriesBuf, nodes []NodeStats, name string, q float64) {
	for ni := range nodes {
		if nodes[ni].Window == nil {
			continue
		}
		for wi := range nodes[ni].Stats.Workers {
			if wi >= len(nodes[ni].Window) {
				break
			}
			sb.start(name, nodes[ni].Node)
			sb.labelUint("worker", uint64(wi))
			sb.valFloat(nodes[ni].Window[wi].Quantile(q).Seconds())
		}
	}
}
