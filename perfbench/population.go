package main

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/rng"
	"botdetect/internal/workload"
)

// browse shape: humans arrive as a Poisson process and browse with think
// times compressed by thinkCompression; robots run closed loop beside them.
const (
	humanArrivalsPerSec = 6.0
	thinkCompression    = 60.0
	humanTailSeconds    = 3.0 // arrivals stop this long before the nominal end
	humanJSShare        = 0.92
	// maxLagP99 bounds how late (p99) the open-loop generator may start a
	// page view before the run is declared invalid.
	maxLagP99 = 500 * time.Millisecond
)

// humanPlan is one human session of the browse schedule.
type humanPlan struct {
	agent   agents.Agent
	arrival time.Duration
	state   *agentState
}

// buildHumans draws the browse workload's human sessions from the seed: a
// fixed number of sessions (the run's fixed work) arriving as a Poisson
// process over the window, exactly humanJSShare of them with JavaScript
// (the seed picks which), each with the paper's page-count draw.
func buildHumans(seed uint64, seconds int) []*humanPlan {
	src := rng.New(seed).Fork("perfbench-humans")
	window := float64(seconds) - humanTailSeconds
	if window < 1 {
		window = 1
	}
	n := int(humanArrivalsPerSec * window)
	// Poisson arrivals conditioned on n: normalised exponential gaps.
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = src.Exp(1)
		total += gaps[i]
	}
	noJS := make([]bool, n)
	for i := 0; i < n-int(float64(n)*humanJSShare+0.5); i++ {
		noJS[i] = true
	}
	src.Shuffle(n, func(i, j int) { noJS[i], noJS[j] = noJS[j], noJS[i] })
	out := make([]*humanPlan, 0, n)
	var t float64
	for i := 0; i < n; i++ {
		t += gaps[i] / total * window
		ip := fmt.Sprintf("20.%d.%d.%d", 1+i/62500, 1+(i/250)%250, 1+i%250)
		h := agents.NewHuman(agents.HumanConfig{
			IP:                ip,
			Host:              "www.example.com",
			Pages:             3 + src.Poisson(9),
			JavaScriptEnabled: !noJS[i],
			SolveCaptcha:      0.38,
			ThinkTimeMean:     15 * time.Second,
			Src:               src.Split(),
		})
		out = append(out, &humanPlan{agent: h, arrival: time.Duration(t * float64(time.Second)),
			state: &agentState{human: true, ip: ip, ua: h.UserAgent()}})
	}
	return out
}

// robotStream yields the workload.CoDeeNMix robot families, one fresh
// session per call. Families come in seeded shuffles of blocks of
// robotBlock sessions that hold the mix's exact proportions, so every run
// sees the same composition however many robots it gets through.
type robotStream struct {
	src   *rng.Source
	block []int
	n     int
}

const robotBlock = 200

func newRobotStream(seed uint64) *robotStream {
	m := workload.CoDeeNMix()
	weights := []float64{m.Crawler, m.EmailHarvester, m.ReferrerSpammer, m.ClickFraud,
		m.VulnScanner, m.OfflineBrowser, m.SmartBot, m.SmartBotForgedUA}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	// Largest-remainder apportionment of robotBlock slots.
	var block []int
	rem := make([]float64, len(weights))
	for k, w := range weights {
		exact := w / sum * robotBlock
		for i := 0; i < int(exact); i++ {
			block = append(block, k)
		}
		rem[k] = exact - float64(int(exact))
	}
	for len(block) < robotBlock {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		block = append(block, best)
		rem[best] = -1
	}
	return &robotStream{src: rng.New(seed).Fork("perfbench-robots"), block: block}
}

func (r *robotStream) next() (agents.Agent, *agentState) {
	i := r.n
	r.n++
	if i%robotBlock == 0 {
		r.src.Shuffle(len(r.block), func(a, b int) { r.block[a], r.block[b] = r.block[b], r.block[a] })
	}
	pick := r.block[i%robotBlock]
	ip := fmt.Sprintf("30.%d.%d.%d", 1+i/62500, 1+(i/250)%250, 1+i%250)
	src := r.src.Split()
	cfg := agents.RobotConfig{IP: ip, Host: "www.example.com", Requests: 5 + src.Poisson(35),
		InterRequestMean: 2 * time.Second, Src: src}
	var a agents.Agent
	switch pick {
	case 0:
		a = agents.NewCrawler(cfg)
	case 1:
		a = agents.NewEmailHarvester(cfg)
	case 2:
		a = agents.NewReferrerSpammer(cfg)
	case 3:
		a = agents.NewClickFraud(cfg)
	case 4:
		a = agents.NewVulnScanner(cfg)
	case 5:
		a = agents.NewOfflineBrowser(cfg)
	case 6:
		a = agents.NewSmartBot(cfg)
	default:
		cfg.EngineAgent = "Mozilla/5.0 (embedded script engine) BotRuntime/0.9"
		a = agents.NewSmartBot(cfg)
	}
	return a, &agentState{ip: ip, ua: a.UserAgent()}
}

// event is one due human page view.
type event struct {
	due time.Duration
	h   int
}

type eventHeap []event

func (e eventHeap) Len() int { return len(e) }
func (e eventHeap) Less(i, j int) bool {
	if e[i].due != e[j].due {
		return e[i].due < e[j].due
	}
	return e[i].h < e[j].h
}
func (e eventHeap) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e *eventHeap) Push(x any)   { *e = append(*e, x.(event)) }
func (e *eventHeap) Pop() any {
	old := *e
	x := old[len(old)-1]
	*e = old[:len(old)-1]
	return x
}

// openLoop runs the human schedule on one connection: each page view starts
// when due (or as soon as the previous one finishes, if the generator runs
// late), and its latency is measured from its due time, so a stall is
// charged to every page view it delays.
func openLoop(c *genClient, humans []*humanPlan, start time.Time) (latMs, lagMs, endS []float64) {
	h := make(eventHeap, 0, len(humans))
	for i, p := range humans {
		h = append(h, event{due: p.arrival, h: i})
	}
	heap.Init(&h)
	for h.Len() > 0 {
		ev := heap.Pop(&h).(event)
		dueAt := start.Add(ev.due)
		waitUntil(dueAt)
		began := time.Now()
		p := humans[ev.h]
		c.cur = p.state
		next, done := p.agent.Step(c, began)
		end := time.Now()
		latMs = append(latMs, ms(end.Sub(dueAt)))
		endS = append(endS, end.Sub(start).Seconds())
		lagMs = append(lagMs, ms(began.Sub(dueAt)))
		if !done {
			heap.Push(&h, event{due: ev.due + time.Duration(float64(next)/thinkCompression), h: ev.h})
		}
	}
	c.cur = nil
	return latMs, lagMs, endS
}

// waitUntil sleeps until shortly before t and spins the rest of the way:
// timer wake-ups here run late by up to a millisecond, which would otherwise
// be charged to every page view as generator lag.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinWindow = 2 * time.Millisecond

// closedLoop runs robot sessions back to back on one connection, each step
// as soon as the previous one returns, until stop is set.
func closedLoop(c *genClient, rs *robotStream, stop *atomic.Bool) (launched []*agentState) {
	var cur agents.Agent
	for !stop.Load() {
		if cur == nil {
			var st *agentState
			cur, st = rs.next()
			launched = append(launched, st)
			c.cur = st
		}
		if _, done := cur.Step(c, time.Now()); done {
			cur = nil
		}
	}
	c.cur = nil
	return launched
}
