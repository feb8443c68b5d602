package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/captcha"
	"botdetect/internal/cdn"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/policy"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
	"botdetect/internal/workload"
)

// simulate shape: simReps runs of simSessionsPerSecond × -seconds sessions
// of the CoDeeN mix through workload.Run's event loop: 4 cdn nodes, policy on,
// virtual clock. Rep r uses workload seed seed×simReps+r.
const (
	simReps              = 5
	simSessionsPerSecond = 40
	simNodes             = 4
)

func simConfig(o options, rep int) workload.Config {
	return workload.Config{Sessions: simSessionsPerSecond * o.seconds, Nodes: simNodes, WithPolicy: true,
		Seed: o.seed*simReps + uint64(rep)}
}

// The loop below reproduces workload.Run step for step (same random
// stream, agent construction, arrivals and scheduling) so that the
// benchmark can time each agent step and read state before the final flush.
// Every run checks it against workload.Run itself: both must end with the
// same sessions, verdicts and node counters.
var simStart = time.Date(2006, time.January, 6, 0, 0, 0, 0, time.UTC)

// simSite is the site workload.Run generates for a seed.
func simSite(seed uint64) *webmodel.Site {
	return webmodel.Generate(webmodel.SiteConfig{Seed: seed ^ 0x5117, NumPages: 120})
}

func simNetwork(seed uint64, site *webmodel.Site, vc *clock.Virtual) *cdn.Network {
	return cdn.NewNetwork(simNodes, site, core.Config{Clock: vc, ObfuscateJS: true}, true, seed^0xabcd)
}

type simAgent struct {
	agent agents.Agent
	state *agentState
	at    time.Duration
}

// simAgents draws the session population exactly as workload.Run does.
func simAgents(cfg workload.Config, host string) []simAgent {
	src := rng.New(cfg.Seed).Fork("workload")
	m := workload.CoDeeNMix()
	weights := []float64{m.HumanJS, m.HumanNoJS, m.Crawler, m.EmailHarvester, m.ReferrerSpammer,
		m.ClickFraud, m.VulnScanner, m.OfflineBrowser, m.SmartBot, m.SmartBotForgedUA}
	var out []simAgent
	arrival := time.Duration(0)
	for i := 0; i < cfg.Sessions; i++ {
		pick := src.WeightedChoice(weights)
		ip := fmt.Sprintf("%d.%d.%d.%d", 11+i%80, (i/253)%253+1, (i%253)+1, 1+src.Intn(250))
		a := simBuildAgent(pick, ip, host, src.Split())
		arrival += time.Duration(src.Exp(float64(time.Second) / 2.0))
		out = append(out, simAgent{agent: a, at: arrival,
			state: &agentState{human: a.Kind().IsHuman(), ip: ip, ua: a.UserAgent()}})
	}
	return out
}

func simBuildAgent(pick int, ip, host string, src *rng.Source) agents.Agent {
	if pick <= 1 {
		return agents.NewHuman(agents.HumanConfig{
			IP: ip, Host: host, Pages: 3 + src.Poisson(9), JavaScriptEnabled: pick == 0,
			MouseMoveProbability: 0.85, SolveCaptcha: 0.38, ThinkTimeMean: 15 * time.Second, Src: src,
		})
	}
	cfg := agents.RobotConfig{IP: ip, Host: host, Requests: 5 + src.Poisson(35), InterRequestMean: 2 * time.Second, Src: src}
	switch pick {
	case 2:
		return agents.NewCrawler(cfg)
	case 3:
		return agents.NewEmailHarvester(cfg)
	case 4:
		return agents.NewReferrerSpammer(cfg)
	case 5:
		return agents.NewClickFraud(cfg)
	case 6:
		return agents.NewVulnScanner(cfg)
	case 7:
		return agents.NewOfflineBrowser(cfg)
	case 8:
		return agents.NewSmartBot(cfg)
	default:
		cfg.EngineAgent = "Mozilla/5.0 (embedded script engine) BotRuntime/0.9"
		return agents.NewSmartBot(cfg)
	}
}

// simClient wraps the cdn network: oracle check and accounting per request,
// and (traced) a cdn.do span inside the current agents.step span.
type simClient struct {
	net     *cdn.Network
	or      *oracle
	cnt     counters
	cur     *agentState
	captcha int64
	tr      *tracer
	step    int
}

func (s *simClient) Do(req agents.Request) agents.Response {
	s.cnt.attempted++
	var i int
	if s.tr != nil {
		i = s.tr.begin("cdn.do", s.step, int64(s.step)+1)
	}
	resp := s.net.Do(req)
	if s.tr != nil {
		s.tr.end(i)
	}
	var err error
	if req.Path == agents.CaptchaSolvePath {
		s.captcha++
		if resp.Status != http.StatusOK || string(resp.Body) != "ok" {
			err = fmt.Errorf("captcha solve: %d", resp.Status)
		}
	} else {
		err = s.or.check(req.Method, req.Path, resp.Status, resp.ContentType, resp.RedirectTo, resp.Body)
	}
	if err != nil {
		s.cnt.failed++
		if len(s.cnt.firstErrors) < 5 {
			s.cnt.firstErrors = append(s.cnt.firstErrors, fmt.Sprintf("%s %s: %v", req.Method, req.Path, err))
		}
	}
	refused := resp.Status == http.StatusForbidden || resp.Status == http.StatusTooManyRequests
	if s.cur.human {
		s.cnt.humanRequests++
		if refused {
			s.cnt.humanRefused++
		}
	}
	if refused {
		s.cur.refused = true
	}
	return resp
}

// drive schedules the agents on vc against client exactly as workload.Run
// does, timing every agent step in wall-clock time.
func drive(vc *clock.Virtual, pop []simAgent, client agents.Client, setCur func(*agentState), tr *tracer, cfg workload.Config) []float64 {
	lat := make([]float64, 0, cfg.Sessions*16)
	for _, a := range pop {
		a := a
		var step func(now time.Time)
		step = func(now time.Time) {
			setCur(a.state)
			var sp int
			if tr != nil {
				sp = tr.begin("agents.step", -1, 0)
				if sc, ok := client.(*simClient); ok {
					sc.step = sp
				}
			}
			t0 := time.Now()
			delay, done := a.agent.Step(client, now)
			lat = append(lat, ms(time.Since(t0)))
			if tr != nil {
				tr.end(sp)
				tr.setReq(sp, int64(sp)+1)
			}
			if !done {
				vc.Schedule(delay, step)
			}
		}
		vc.Schedule(a.at, step)
	}
	vc.Drain(cfg.Sessions * 2000)
	return lat
}

// simPass is one replica run's measurements.
type simPass struct {
	setup     float64
	wall      time.Duration
	cpu       time.Duration
	lat       []float64
	client    *simClient
	pop       []simAgent
	heapDelta float64
	gcCycles  float64
	live      int
	estimate  int64
	flushed   []core.ClassifiedSession
	stats     cdn.NodeStats
	metrics   prom
}

// simReplica builds the network and drives the population once; with a
// tracer it records agents.step and cdn.do spans.
func simReplica(cfg workload.Config, tr *tracer) *simPass {
	sp := &simPass{}
	t0 := time.Now()
	vc := clock.NewVirtual(simStart)
	site := simSite(cfg.Seed)
	net := simNetwork(cfg.Seed, site, vc)
	sp.setup = time.Since(t0).Seconds()
	sp.pop = simAgents(cfg, site.Host())
	sp.client = &simClient{net: net, or: newSimOracle(site), tr: tr}
	var h0, h1 runtime.MemStats
	fullGC()
	runtime.ReadMemStats(&h0)
	cpu0 := selfCPU()
	start := time.Now()
	sp.lat = drive(vc, sp.pop, sp.client, func(s *agentState) { sp.client.cur = s }, tr, cfg)
	sp.wall = time.Since(start)
	sp.cpu = selfCPU() - cpu0
	fullGC()
	runtime.ReadMemStats(&h1)
	sp.heapDelta = float64(h1.HeapAlloc) - float64(h0.HeapAlloc)
	sp.gcCycles = float64(h1.NumGC-h0.NumGC) - float64(h1.NumForcedGC-h0.NumForcedGC)
	for _, n := range net.Nodes() {
		sp.live += n.Engine().SessionCount()
		sp.estimate += n.Engine().MemoryEstimate()
	}
	var b strings.Builder
	net.WriteMetrics(&b)
	sp.metrics = parseProm([]byte(b.String()))
	sp.stats = net.TotalStats()
	sp.flushed = net.FlushSessions()
	sp.client.net = nil // the network is garbage from here on
	return sp
}

// sameOutcome checks that two runs ended with identical sessions, verdicts
// and node counters.
func sameOutcome(a []core.ClassifiedSession, as cdn.NodeStats, b []core.ClassifiedSession, bs cdn.NodeStats) error {
	if as != bs {
		return fmt.Errorf("node counters differ: %+v vs %+v", as, bs)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d sessions", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Snapshot.Key != y.Snapshot.Key || x.Verdict.Class != y.Verdict.Class || x.Snapshot.Counts != y.Snapshot.Counts {
			return fmt.Errorf("session %d differs: %v %v/%v vs %v %v/%v", i, x.Snapshot.Key, x.Verdict.Class, x.Snapshot.Counts.Total,
				y.Snapshot.Key, y.Verdict.Class, y.Snapshot.Counts.Total)
		}
	}
	return nil
}

// runSimulate runs simReps replicas, each checked against workload.Run:
// every rep is a fresh network of a smaller population, so the run covers
// simReps times the sessions at one rep's memory. Latency quantiles,
// throughput and CPU per request are medians over the reps; heap per
// session pools them.
func runSimulate(o options) *result {
	res := &result{}
	var tr *tracer
	if o.trace {
		tr = newTracer(1 << 16)
	}
	var (
		p50s, p99s, thrs, cpus  []float64
		setups, lat             []float64
		wall, cpu               time.Duration
		requests, heapDelta, gc float64
		live                    int
		estimate                int64
		humanReq, humanRefused  int64
		robots, missed          int
		metrics                 = prom{}
		stats                   cdn.NodeStats
		captchas                int64
	)
	for r := 0; r < simReps; r++ {
		cfg := simConfig(o, r)
		sp := simReplica(cfg, tr)
		mergeCounters(res, &sp.client.cnt)
		wr := checkAgainstWorkloadRun(cfg, sp)
		setups = append(setups, sp.setup)
		lat = append(lat, sp.lat...)
		p50s = append(p50s, quantile(sp.lat, 0.5))
		p99s = append(p99s, quantile(sp.lat, 0.99))
		thrs = append(thrs, float64(sp.client.cnt.attempted)/sp.wall.Seconds())
		cpus = append(cpus, us(sp.cpu)/float64(sp.client.cnt.attempted))
		wall += sp.wall
		cpu += sp.cpu
		requests += float64(sp.client.cnt.attempted)
		heapDelta += sp.heapDelta
		gc += sp.gcCycles
		live += sp.live
		estimate += sp.estimate
		humanReq += sp.client.cnt.humanRequests
		humanRefused += sp.client.cnt.humanRefused
		captchas += sp.client.captcha
		rb, ms := missedRobots(sp, wr)
		robots += rb
		missed += ms
		for k, v := range sp.metrics {
			metrics[k] += v
		}
		addStats(&stats, sp.stats)
	}
	heapPerSes := ratio(heapDelta, float64(live))
	e2e := res
	if o.trace {
		e2e = &result{} // the traced replica's end-to-end figures, for the overhead
	}
	e2e.add("setup_s", "s", median(setups), len(setups))
	e2e.add("latency_p50_ms", "ms", median(p50s), len(lat))
	e2e.note("latency_p99_ms", "ms", median(p99s), len(lat))
	e2e.add("throughput_rps", "1/s", median(thrs), 0)
	e2e.add("cpu_us_per_req", "us", median(cpus), int(requests))
	e2e.add("heap_per_session_b", "B", heapPerSes, live)
	e2e.add("peak_rss_mb", "MB", float64(vmHWM(pidSelf()))/(1<<20), 0)
	if o.trace {
		traceSimulate(o, res, tr, metrics, stats, captchas, e2e)
		return res
	}
	est := ratio(float64(estimate), float64(live))
	res.note("failed_frac", "ratio", ratio(float64(res.failed), float64(res.attempted)), int(res.attempted))
	res.note("refused_human_frac", "ratio", ratio(float64(humanRefused), float64(humanReq)), int(humanReq))
	res.note("missed_robot_frac", "ratio", ratio(float64(missed), float64(robots)), robots)
	res.note("drive_wall_s", "s", wall.Seconds(), 0)
	res.note("latency_p99_ms.pooled", "ms", quantile(lat, 0.99), len(lat))
	res.note("throughput_rps.pooled", "1/s", requests/wall.Seconds(), 0)
	res.note("cpu_us_per_req.pooled", "us", us(cpu)/requests, 0)
	res.note("session.live", "count", float64(live), 0)
	res.note("gc.cycles", "count", gc, 0)
	res.note("core.memory_estimate_b", "B", est, 0)
	res.note("core.memory_estimate_ratio", "ratio", ratio(heapPerSes, est), 0)
	return res
}

func addStats(t *cdn.NodeStats, s cdn.NodeStats) {
	t.Requests += s.Requests
	t.BlockedRequests += s.BlockedRequests
	t.ChallengedRequests += s.ChallengedRequests
	t.ThrottledRequests += s.ThrottledRequests
	t.InstrumentationHits += s.InstrumentationHits
}

// checkAgainstWorkloadRun runs workload.Run on the same configuration and
// requires the benchmark's replica to have ended in the same state: same
// sessions, verdicts, request counts and node counters.
func checkAgainstWorkloadRun(cfg workload.Config, sp *simPass) *workload.Result {
	wr := workload.Run(cfg)
	var want []core.ClassifiedSession
	for _, s := range wr.Sessions {
		want = append(want, core.ClassifiedSession{Snapshot: s.Snapshot, Verdict: s.Verdict})
	}
	launched := map[session.Key]bool{}
	for _, a := range sp.pop {
		launched[session.Key{IP: a.state.ip, UserAgent: a.state.ua}] = true
	}
	var got []core.ClassifiedSession
	for _, s := range sp.flushed {
		if launched[s.Snapshot.Key] {
			got = append(got, s)
		}
	}
	if err := sameOutcome(got, sp.stats, want, wr.Network.TotalStats()); err != nil {
		invalid("benchmark replica diverged from workload.Run: %v", err)
	}
	return wr
}

// missedRobots counts robot sessions and those whose final verdict in
// workload.Result is not robot and that were never blocked or challenged.
func missedRobots(sp *simPass, wr *workload.Result) (robots, missed int) {
	verdict := map[session.Key]string{}
	for _, s := range wr.Sessions {
		verdict[s.Snapshot.Key] = s.Verdict.Class.String()
	}
	for _, a := range sp.pop {
		if a.state.human {
			continue
		}
		robots++
		if verdict[session.Key{IP: a.state.ip, UserAgent: a.state.ua}] != "robot" && !a.state.refused {
			missed++
		}
	}
	return robots, missed
}

// traceSimulate reports the per-layer metrics of the traced replicas
// (agents.step ⊃ cdn.do) and of the engine leg (the first rep's population
// served by calls into one engine, on a virtual clock).
func traceSimulate(o options, res *result, ctr *tracer, m prom, s cdn.NodeStats, captchas int64, traced *result) {
	cSum, cUnacc := ctr.summary()

	cfg := simConfig(o, 0)
	vc := clock.NewVirtual(simStart)
	site := simSite(cfg.Seed)
	eng := core.New(core.Config{Clock: vc, ObfuscateJS: true, Seed: cfg.Seed ^ 0xabcd})
	pol := policy.NewEngine(policy.Config{Clock: vc})
	pol.RegisterMetrics(eng.Telemetry().Registry(), "")
	st := &stack{eng: eng, pol: pol, cap: captcha.NewService(captcha.Config{Seed: cfg.Seed, Clock: vc}), site: site}
	etr := newTracer(1 << 16)
	et := newEngineTarget(st, etr)
	et.virtual = true
	gc := &genClient{t: et, or: newProxyOracle(site), tracer: etr, rootSp: "engine.request"}
	drive(vc, simAgents(cfg, site.Host()), gc, func(s *agentState) { gc.cur = s }, nil, cfg)
	mergeCounters(res, &gc.cnt)
	eSum, eUnacc := etr.summary()
	if et.admit[core.AdmitDegraded]+et.admit[core.AdmitPassThrough] > 0 {
		invalid("admission left full in the engine leg")
	}

	layerTimes(res, eSum, st)
	origin := float64(s.Requests - s.InstrumentationHits - s.BlockedRequests - s.ChallengedRequests - captchas)
	res.add("proxy.requests.origin", "count", origin, 0)
	res.add("proxy.requests.beacon", "count", float64(s.InstrumentationHits), 0)
	res.add("proxy.requests.blocked", "count", float64(s.BlockedRequests), 0)
	res.add("proxy.requests.challenged", "count", float64(s.ChallengedRequests), 0)
	res.add("proxy.requests.throttled", "count", float64(s.ThrottledRequests), 0)
	admitCounts(res, m, origin)
	engineCounts(res, m)
	res.add("trace.unaccounted_frac", "ratio", eUnacc, 0)

	if d := cSum["cdn.do"]; d != nil {
		res.note("cdn.do_us", "us", d.MeanUs, d.Count)
	}
	if a := cSum["agents.step"]; a != nil {
		res.note("agents.step_us", "us", a.SelfUs, a.Count)
	}
	res.note("agents.step_unaccounted_frac", "ratio", cUnacc, 0)
	spanNotes(res, eSum)
	overhead(o, res, traced)
	writeTrace(o, res, map[string]map[string]*layerStat{"cdn": cSum, "engine": eSum}, map[string]*tracer{"cdn": ctr, "engine": etr})
}
