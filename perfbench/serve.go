package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"botdetect/internal/core"
	"botdetect/internal/rng"
	"botdetect/internal/webmodel"
)

// crowd shape: clientsPerSecond × -seconds distinct first-visit clients,
// each with 1–3 plain page views, closed loop over two connections.
const clientsPerSecond = 2500

// passResult is what one drive of a workload's generator measured.
type passResult struct {
	wall          time.Duration
	latMs, lagMs  []float64
	endS          []float64 // completion time of each latMs sample, s since start
	cnt           []*counters
	humans        []*humanPlan
	robots        []*agentState
	genCPU        time.Duration
	humanRequests int64
	humanRefused  int64
}

func (p *passResult) attempted() (n int64) {
	for _, c := range p.cnt {
		n += c.attempted
	}
	return n
}

// slices is how many equal time slices a run is cut into; its latency
// quantiles and throughput are the medians over the slices, so a transient
// stall (a GC cycle of the growing heap, a noisy neighbour, a burst of
// arrivals) moves one slice, not the result.
const slices = 10

// latencyMetrics reports latency_p50_ms, latency_p99_ms and throughput_rps.
// When every request is a timed sample (crowd) throughput is the median over
// the slices too; browse times page views, and reports all requests over the
// whole run.
func (p *passResult) latencyMetrics(res *result) {
	width := p.wall.Seconds() / slices
	buckets := make([][]float64, slices)
	for i, t := range p.endS {
		k := int(t / width)
		if k >= slices {
			k = slices - 1
		}
		buckets[k] = append(buckets[k], p.latMs[i])
	}
	var p50, p99, thr []float64
	for _, b := range buckets {
		p50 = append(p50, quantile(b, 0.50))
		p99 = append(p99, quantile(b, 0.99))
		thr = append(thr, float64(len(b))/width)
	}
	res.add("latency_p50_ms", "ms", median(p50), len(p.latMs))
	res.note("latency_p99_ms", "ms", median(p99), len(p.latMs))
	if len(p.lagMs) > 0 {
		res.add("throughput_rps", "1/s", float64(p.attempted())/p.wall.Seconds(), 0)
	} else {
		res.add("throughput_rps", "1/s", median(thr), 0)
	}
	res.note("latency_p99_ms.whole_run", "ms", quantile(p.latMs, 0.99), len(p.latMs))
	res.note("throughput_rps.whole_run", "1/s", float64(p.attempted())/p.wall.Seconds(), 0)
}

// legSetup describes where a pass sends its requests.
type legSetup struct {
	dial   func() target // one call per connection
	tracer *tracer
	rootSp string
	serial *sync.Mutex
	or     *oracle
}

func (l legSetup) client() *genClient {
	return &genClient{t: l.dial(), or: l.or, tracer: l.tracer, rootSp: l.rootSp, serial: l.serial, answerChallenges: true}
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// browsePass drives the browse population: humans open loop on connection
// 1, robots closed loop on connection 2 until the human schedule is done.
func browsePass(o options, l legSetup) *passResult {
	humans := buildHumans(o.seed, o.seconds)
	rs := newRobotStream(o.seed)
	c1, c2 := l.client(), l.client()
	defer c1.t.close()
	defer c2.t.close()
	pr := &passResult{humans: humans}
	var stop atomic.Bool
	var wg sync.WaitGroup
	cpu0 := selfCPU()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		pr.robots = closedLoop(c2, rs, &stop)
	}()
	pr.latMs, pr.lagMs, pr.endS = openLoop(c1, humans, start)
	stop.Store(true)
	wg.Wait()
	pr.wall = time.Since(start)
	pr.genCPU = selfCPU() - cpu0
	pr.cnt = []*counters{&c1.cnt, &c2.cnt}
	for _, c := range pr.cnt {
		pr.humanRequests += c.humanRequests
		pr.humanRefused += c.humanRefused
	}
	return pr
}

// crowdPass drives the crowd: distinct first-visit clients, each with 1–3
// plain page views and nothing else, closed loop over two connections.
func crowdPass(o options, l legSetup, site *webmodel.Site) *passResult {
	n := clientsPerSecond * o.seconds
	src := rng.New(o.seed).Fork("perfbench-crowd")
	zipf := rng.NewZipf(src.Split(), site.NumPages(), 0.9)
	type view struct{ ip, ua, path string }
	plans := [2][]view{}
	pages := site.Pages()
	for i := 0; i < n; i++ {
		ip := fmt.Sprintf("40.%d.%d.%d", 1+i/62500, 1+(i/250)%250, 1+i%250)
		ua := uaFor(src)
		for v := 1 + src.Intn(3); v > 0; v-- {
			plans[i%2] = append(plans[i%2], view{ip: ip, ua: ua, path: pages[zipf.Next()].Path})
		}
	}
	pr := &passResult{}
	lats, ends := [2][]float64{}, [2][]float64{}
	clients := [2]*genClient{l.client(), l.client()}
	cpu0 := selfCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := clients[k]
			lat := make([]float64, 0, len(plans[k]))
			end := make([]float64, 0, len(plans[k]))
			for _, v := range plans[k] {
				x := exchange{method: "GET", path: v.path, ip: v.ip, ua: v.ua}
				t0 := time.Now()
				c.do(&x)
				t1 := time.Now()
				lat = append(lat, ms(t1.Sub(t0)))
				end = append(end, t1.Sub(start).Seconds())
			}
			lats[k], ends[k] = lat, end
			c.t.close()
		}(k)
	}
	wg.Wait()
	pr.wall = time.Since(start)
	pr.genCPU = selfCPU() - cpu0
	pr.latMs = append(lats[0], lats[1]...)
	pr.endS = append(ends[0], ends[1]...)
	pr.cnt = []*counters{&clients[0].cnt, &clients[1].cnt}
	return pr
}

var crowdAgents = []string{
	"Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8.0.1) Gecko/20060111 Firefox/1.5.0.1",
	"Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1)",
	"Mozilla/5.0 (Macintosh; U; PPC Mac OS X; en) AppleWebKit/418 Safari/417.9.3",
	"Opera/8.54 (Windows NT 5.1; U; en)",
}

func uaFor(src *rng.Source) string { return crowdAgents[src.Intn(len(crowdAgents))] }

// procRun is what the out-of-process measurement saw of the proxy.
type procRun struct {
	setup      float64
	cpu        time.Duration
	answered   float64
	heap0      memStats
	heap1      memStats
	hwm        int64
	before     prom
	after      prom
	verdicts   map[*agentState]string
	sessions   float64
	pass       *passResult
	heapPerSes float64
}

// runAgainstProxy launches fresh proxies (measuring set-up), drives one
// pass against the last, and reads the proxy's accounting around it. It
// enforces the validity guards that need the proxy process.
func runAgainstProxy(o options, or *oracle, drive func(legSetup) *passResult) *procRun {
	p, setup := launchFresh(o, or)
	defer p.stop()
	r := &procRun{setup: setup}
	var err error
	if r.heap0, err = p.heap(); err != nil {
		invalid("proxy heap: %v", err)
	}
	if r.before, err = p.metrics(); err != nil {
		invalid("metrics scrape: %v", err)
	}
	cpu0 := p.cpu()
	r.pass = drive(legSetup{or: or, dial: func() target {
		c, err := dialHTTP(p.pub)
		if err != nil {
			invalid("dial proxy: %v", err)
		}
		return c
	}})
	if !p.alive() {
		invalid("proxy exited during the run")
	}
	r.cpu = p.cpu() - cpu0
	if r.after, err = p.metrics(); err != nil {
		invalid("metrics scrape: %v", err)
	}
	if r.heap1, err = p.heap(); err != nil {
		invalid("proxy heap: %v", err)
	}
	r.hwm = vmHWM(p.cmd.Process.Pid)
	r.answered = answered(r.after) - answered(r.before)
	r.sessions = r.after.sum("botdetect_sessions_active")
	r.heapPerSes = ratio(r.heap1.heapAlloc-r.heap0.heapAlloc, r.sessions)

	// Every launched session must be visible on the admin surface; its final
	// verdict feeds missed_robot_frac.
	r.verdicts = map[*agentState]string{}
	var states []*agentState
	for _, h := range r.pass.humans {
		states = append(states, h.state)
	}
	states = append(states, r.pass.robots...)
	for _, st := range states {
		v, err := p.verdictOf(st.ip, st.ua)
		if err != nil {
			invalid("launched session %s %q never reached the admin endpoint: %v", st.ip, st.ua, err)
		}
		r.verdicts[st] = v
	}
	if !p.alive() {
		invalid("proxy exited during the run")
	}
	if shed := r.after.sum("botdetect_load_shed_total"); shed > 0 {
		invalid("admission left full: %v page views shed or degraded", shed)
	}
	return r
}

// answered counts requests the middleware completed (throttled requests
// are also counted as origin, so they are not added again).
func answered(m prom) float64 {
	return m.sum("botdetect_proxy_requests_total") - m.sum("botdetect_proxy_requests_total", `outcome="throttled"`)
}

// e2e reports the end-to-end metrics of an out-of-process run.
func (r *procRun) e2e(res *result) {
	pr := r.pass
	res.add("setup_s", "s", r.setup, setupLaunches)
	pr.latencyMetrics(res)
	res.add("cpu_us_per_req", "us", us(r.cpu)/r.answered, int(r.answered))
	res.add("heap_per_session_b", "B", r.heapPerSes, int(r.sessions))
	res.add("peak_rss_mb", "MB", float64(r.hwm)/(1<<20), 0)
	mergeCounters(res, pr.cnt...)
	res.note("requests_answered", "count", r.answered, 0)
	res.note("failed_frac", "ratio", ratio(float64(res.failed), float64(res.attempted)), int(res.attempted))
	res.note("gen.cpu_s", "s", pr.genCPU.Seconds(), 0)
	res.note("proxy.cpu_s", "s", r.cpu.Seconds(), 0)
	res.note("wall_s", "s", pr.wall.Seconds(), 0)
	res.note("session.live", "count", r.sessions, 0)
	est := r.after.sum("botdetect_memory_bytes_per_session")
	res.note("core.memory_estimate_b", "B", est, 0)
	res.note("core.memory_estimate_ratio", "ratio", ratio(r.heapPerSes, est), 0)
}

// quality reports refused_human_frac and missed_robot_frac.
func (r *procRun) quality(res *result) {
	pr := r.pass
	var miss int
	for _, st := range pr.robots {
		if r.verdicts[st] != "robot" && !st.refused {
			miss++
		}
	}
	res.note("refused_human_frac", "ratio", ratio(float64(pr.humanRefused), float64(pr.humanRequests)), int(pr.humanRequests))
	res.note("missed_robot_frac", "ratio", ratio(float64(miss), float64(len(pr.robots))), len(pr.robots))
	res.note("human_sessions", "count", float64(len(pr.humans)), 0)
	res.note("robot_sessions", "count", float64(len(pr.robots)), 0)
}

// runtimeStats reports the proxy's Go runtime figures over the run.
func (r *procRun) runtimeStats(res *result) {
	res.note("gc.cycles", "count", (r.heap1.numGC-r.heap0.numGC)-(r.heap1.numForcedGC-r.heap0.numForcedGC), 0)
	res.note("gc.cpu_frac", "ratio", r.heap1.gcCPUFraction, 0)
	res.note("heap_alloc_b", "B", r.heap1.heapAlloc, 0)
}

// checkLag is the open-loop validity guard.
func checkLag(res *result, lagMs []float64) {
	lagP99 := quantile(lagMs, 0.99)
	res.note("gen.lag_p99_ms", "ms", lagP99, len(lagMs))
	if lagP99 > ms(maxLagP99) {
		invalid("open-loop generator ran late: lag p99 %.1f ms > %.0f ms", lagP99, ms(maxLagP99))
	}
}

func runBrowse(o options) *result {
	drive := func(l legSetup) *passResult { return browsePass(o, l) }
	if o.trace {
		return traceServe(o, drive)
	}
	site := webmodel.Generate(webmodel.SiteConfig{Seed: proxySeed, NumPages: proxyPages})
	res := &result{}
	ref := runAgainstProxy(o, newProxyOracle(site), drive)
	ref.e2e(res)
	ref.quality(res)
	ref.runtimeStats(res)
	checkLag(res, ref.pass.lagMs)
	return res
}

func runCrowd(o options) *result {
	site := webmodel.Generate(webmodel.SiteConfig{Seed: proxySeed, NumPages: proxyPages})
	drive := func(l legSetup) *passResult { return crowdPass(o, l, site) }
	if o.trace {
		return traceServe(o, drive)
	}
	res := &result{}
	ref := runAgainstProxy(o, newProxyOracle(site), drive)
	ref.e2e(res)
	ref.runtimeStats(res)
	checkThrottle(ref.after)
	return res
}

// checkThrottle is crowd's validity guard: a throttle decision means the
// run measured the policy's 10 ms sleep instead of the serve path.
func checkThrottle(m prom) {
	if th := m.sum("botdetect_policy_decisions_total", `action="throttle"`); th > 0 {
		invalid("crowd recorded %v throttle decisions; it would be measuring the 10 ms throttle sleep", th)
	}
}

// traceServe runs the two traced legs of an HTTP workload and reports the
// per-layer metrics: the HTTP leg (client round trip ⊃ Middleware.ServeHTTP
// ⊃ origin handler, the stack in-process) and the engine leg (the same
// seeded clients served by calls into the engine's entry points).
func traceServe(o options, drive func(legSetup) *passResult) *result {
	res := &result{}
	traced, hSum := httpLegRun(o, res, drive)

	// Engine leg; the HTTP leg's stack is garbage by now.
	est := newStack()
	etr := newTracer(1 << 16)
	var serial sync.Mutex
	var targets []*engineTarget
	ep := drive(legSetup{or: newProxyOracle(est.site), tracer: etr, rootSp: "engine.request", serial: &serial,
		dial: func() target {
			t := newEngineTarget(est, etr)
			targets = append(targets, t)
			return t
		}})
	mergeCounters(res, ep.cnt...)
	eSum, eUnacc := etr.summary()
	for _, t := range targets {
		if t.admit[core.AdmitDegraded]+t.admit[core.AdmitPassThrough] > 0 {
			invalid("admission left full in the engine leg")
		}
	}
	layerTimes(res, eSum, est)
	res.add("trace.unaccounted_frac", "ratio", eUnacc, 0)
	spanNotes(res, eSum)
	overhead(o, res, traced)
	writeTrace(o, res, map[string]map[string]*layerStat{"http": hSum, "engine": eSum}, map[string]*tracer{"engine": etr})
	return res
}

// httpLegRun drives the workload through the in-process stack and reports
// the proxy's counters, the transport layers' times and the leg's own
// end-to-end figures (returned, for the overhead). It writes the HTTP leg's
// span dump itself so the spans can be dropped before the engine leg.
func httpLegRun(o options, res *result, drive func(legSetup) *passResult) (*result, map[string]*layerStat) {
	hst := newStack()
	htr := newTracer(1 << 16)
	t0 := time.Now()
	leg, err := startHTTPLeg(hst, htr)
	if err != nil {
		invalid("start HTTP leg: %v", err)
	}
	hSetup := time.Since(t0)
	var ms0 runtime.MemStats
	fullGC()
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	hp := drive(legSetup{or: newProxyOracle(hst.site), tracer: htr, rootSp: "http.client", dial: func() target {
		c, err := dialHTTP(leg.addr)
		if err != nil {
			invalid("dial HTTP leg: %v", err)
		}
		return c
	}})
	hCPU := selfCPU() - cpu0
	leg.stop()
	var ms1 runtime.MemStats
	fullGC()
	runtime.ReadMemStats(&ms1)
	hm := hst.metrics()
	mergeCounters(res, hp.cnt...)
	if hm.sum("botdetect_load_shed_total") > 0 {
		invalid("admission left full in the HTTP leg")
	}
	if o.workload == "crowd" {
		checkThrottle(hm)
	}
	if len(hp.lagMs) > 0 {
		checkLag(res, hp.lagMs)
	}
	proxyCounts(res, hm)
	engineCounts(res, hm)

	hSum, hUnacc := htr.summary()
	if s := hSum["http.client"]; s != nil {
		ps := hSum["proxy.serve"]
		res.note("http.overhead_us", "us", s.MeanUs-ps.MeanUs*float64(ps.Count)/float64(s.Count), s.Count)
		res.note("proxy.serve_us", "us", ps.SelfUs, ps.Count)
		res.note("proxy.origin_us", "us", hSum["origin"].MeanUs, hSum["origin"].Count)
		res.note("http.unaccounted_frac", "ratio", hUnacc, 0)
	}
	rw := hst.eng.Telemetry().Rewrite.Snapshot()
	res.note("proxy.rewrite_us.engine_histogram", "us", us(rw.Mean()), int(rw.Count))
	if err := htr.dump(filepath.Join(o.out, o.workload+"-http.spans.csv.gz")); err != nil {
		invalid("write span dump: %v", err)
	}

	traced := &result{}
	traced.add("setup_s", "s", hSetup.Seconds(), 1)
	hp.latencyMetrics(traced)
	traced.add("cpu_us_per_req", "us", us(hCPU)/float64(hp.attempted()), 0)
	traced.add("heap_per_session_b", "B", ratio(float64(ms1.HeapAlloc)-float64(ms0.HeapAlloc), float64(hst.eng.SessionCount())), 0)
	traced.add("peak_rss_mb", "MB", float64(vmHWM(pidSelf()))/(1<<20), 0)
	return traced, hSum
}

// spanNotes reports every span name's mean duration and self time.
func spanNotes(res *result, sum map[string]*layerStat) {
	for _, name := range sortedNames(sum) {
		s := sum[name]
		res.note("span."+name+".mean_us", "us", s.MeanUs, s.Count)
		res.note("span."+name+".self_us", "us", s.SelfUs, s.Count)
	}
}

// overhead reports, for every end-to-end metric, the traced leg's value and
// its ratio to the latest untraced run of the workload in the same output
// directory (traced/untraced − 1). The traced leg serves in the benchmark's
// own process, so its CPU, heap and RSS include the generator and the span
// buffers; set-up has no spans and is not compared.
func overhead(o options, res, traced *result) {
	untraced, seed, ok := loadE2E(o)
	for _, m := range traced.metrics {
		res.note("traced."+m.Name, m.Unit, m.Value, m.N)
		if u, found := untraced[m.Name]; ok && found && m.Name != "setup_s" {
			res.note("overhead."+m.Name, "ratio", ratio(m.Value, u)-1, 0)
		}
	}
	if ok {
		res.note("overhead.baseline_seed", "seed", float64(seed), 0)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: no untraced %s result in %s yet; run -trace 0 first for the tracing overhead\n", o.workload, o.out)
	}
}

// layerTimes reports the engine leg's per-call means and the engine's own
// stage histograms.
func layerTimes(res *result, sum map[string]*layerStat, st *stack) {
	mean := func(name string) (float64, int) {
		if s := sum[name]; s != nil {
			return s.MeanUs, s.Count
		}
		return 0, 0
	}
	for _, l := range [][2]string{
		{"core.prepare_us", "core.prepare"},
		{"htmlmod.splice_us", "htmlmod.splice"},
		{"origin_us", "origin"},
		{"session.observe_us", "session.observe"},
		{"detect.decide_us", "detect.decide"},
		{"policy.evaluate_us", "policy.evaluate"},
	} {
		v, n := mean(l[1])
		res.add(l[0], "us", v, n)
	}
	tel := st.eng.Telemetry()
	ki := tel.KeystoreIssue.Snapshot()
	res.add("keystore.issue_us", "us", us(ki.Mean()), int(ki.Count))
	cl := tel.Classify.Snapshot()
	res.add("detect.recompute_us", "us", us(cl.Mean()), int(cl.Count))
	var beacons float64
	var beaconN int
	for name, s := range sum {
		if strings.HasPrefix(name, "core.beacon.") {
			beacons += s.TotalMs * 1e3
			beaconN += s.Count
			res.note(name+"_us", "us", s.MeanUs, s.Count)
		}
	}
	res.note("core.beacon_us", "us", ratio(beacons, float64(beaconN)), beaconN)
	if v, n := mean("core.admit"); n > 0 {
		res.note("core.admit_us", "us", v, n)
	}
}

// proxyCounts reports the middleware's request outcomes and admission
// decisions over the run.
func proxyCounts(res *result, m prom) {
	for _, o := range []string{"origin", "beacon", "blocked", "challenged", "throttled"} {
		res.add("proxy.requests."+o, "count", m.sum("botdetect_proxy_requests_total", fmt.Sprintf("outcome=%q", o)), 0)
	}
	admitCounts(res, m, m.sum("botdetect_proxy_requests_total", `outcome="origin"`))
}

// admitCounts splits the origin-served requests (each passed AdmitPage) by
// admission.
func admitCounts(res *result, m prom, origin float64) {
	pt := m.sum("botdetect_load_shed_total", `mode="passthrough"`)
	dg := m.sum("botdetect_load_shed_total", `mode="degraded"`)
	res.add("core.admit.full", "count", origin-pt-dg, 0)
	res.add("core.admit.degraded", "count", dg, 0)
	res.add("core.admit.passthrough", "count", pt, 0)
}

// engineCounts reports engine, session, keystore, interner, classifier and
// policy counters from a /__bd/metrics exposition.
func engineCounts(res *result, m prom) {
	for _, k := range []string{"css", "script", "exec", "mouse", "decoy", "hidden", "replay"} {
		res.add("core.beacon."+k, "count", m.sum("botdetect_beacon_requests_total", fmt.Sprintf("kind=%q", k)), 0)
	}
	res.add("session.live", "count", m.sum("botdetect_sessions_active"), 0)
	for _, r := range []string{"idle", "capacity_anonymous", "capacity_evidence"} {
		res.add("session.evicted."+r, "count", m.sum("botdetect_sessions_evicted_total", fmt.Sprintf("reason=%q", r)), 0)
	}
	res.add("keystore.live_clients", "count", m.sum("botdetect_keystore_clients"), 0)
	hits, misses := m.sum("botdetect_intern_lookups_total", `result="hit"`), m.sum("botdetect_intern_lookups_total", `result="miss"`)
	res.add("intern.hit_rate", "ratio", ratio(hits, hits+misses), 0)
	ch, rc := m.sum("botdetect_classify_total", `result="cache_hit"`), m.sum("botdetect_classify_total", `result="recompute"`)
	res.add("detect.cache_hit_ratio", "ratio", ratio(ch, ch+rc), int(ch+rc))
	for _, a := range []string{"allow", "throttle", "challenge", "block"} {
		res.add("policy.decisions."+a, "count", m.sum("botdetect_policy_decisions_total", fmt.Sprintf("action=%q", a)), 0)
	}
	pages := m.sum("botdetect_pages_instrumented_total")
	res.add("htmlmod.added_bytes_per_page", "B", ratio(m.sum("botdetect_instrumentation_bytes_total", `direction="added"`), pages), int(pages))
}

// writeTrace writes the per-layer summary and the span dumps of a traced
// run into the output directory.
func writeTrace(o options, res *result, sums map[string]map[string]*layerStat, trs map[string]*tracer) {
	legs := map[string]any{}
	for k, v := range sums {
		legs[k] = v
	}
	rep := map[string]any{}
	for _, set := range [][]metric{res.metrics, res.extra} {
		for _, m := range set {
			rep[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit, "n": m.N}
		}
	}
	legs["metrics"] = rep
	b, err := json.MarshalIndent(legs, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.out, o.workload+"-trace-summary.json"), b, 0o644)
	}
	if err != nil {
		invalid("write trace summary: %v", err)
	}
	for name, tr := range trs {
		if err := tr.dump(filepath.Join(o.out, fmt.Sprintf("%s-%s.spans.csv.gz", o.workload, name))); err != nil {
			invalid("write span dump: %v", err)
		}
	}
}
