package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"botdetect/internal/captcha"
	"botdetect/internal/core"
	"botdetect/internal/htmlmod"
	"botdetect/internal/logfmt"
	"botdetect/internal/policy"
	"botdetect/internal/proxy"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
)

// stack is the serving stack cmd/botproxy assembles (same engine, policy,
// CAPTCHA and site configuration, same seed), built in-process for the
// traced legs.
type stack struct {
	eng  *core.Engine
	pol  *policy.Engine
	cap  *captcha.Service
	site *webmodel.Site
}

func newStack() *stack {
	eng := core.New(core.Config{Decoys: 4, ObfuscateJS: true, Seed: proxySeed})
	pol := policy.NewEngine(policy.Config{})
	pol.RegisterMetrics(eng.Telemetry().Registry(), "")
	return &stack{
		eng:  eng,
		pol:  pol,
		cap:  captcha.NewService(captcha.Config{Seed: proxySeed}),
		site: webmodel.Generate(webmodel.SiteConfig{Seed: proxySeed, NumPages: proxyPages}),
	}
}

// metrics renders the stack's /__bd/metrics exposition.
func (s *stack) metrics() prom {
	var b bytes.Buffer
	s.eng.Telemetry().Registry().WritePrometheus(&b)
	return parseProm(b.Bytes())
}

// ---- HTTP leg ----------------------------------------------------------

const traceHeader = "X-Perfbench-Req"

type spanKey struct{}

// httpLeg serves the stack through proxy.Middleware on a loopback listener,
// exactly as cmd/botproxy wires it (ConnContext installed), behind a
// wrapping handler that records the middleware's span and an origin wrapper
// that records the origin's.
type httpLeg struct {
	srv  *http.Server
	addr string
}

func startHTTPLeg(st *stack, tr *tracer) (*httpLeg, error) {
	l := &httpLeg{}
	siteH := st.site.Handler()
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := r.Context().Value(spanKey{}).(int)
		i := tr.begin("origin", parent, 0)
		siteH.ServeHTTP(w, r)
		tr.end(i)
	})
	mw := proxy.New(origin, proxy.Config{Engine: st.eng, Policy: st.pol, Captcha: st.cap, TrustForwardedFor: true})
	wrap := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
		i := tr.begin("proxy.serve", rootOfReq, req)
		mw.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, i)))
		tr.end(i)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.addr = ln.Addr().String()
	l.srv = &http.Server{Handler: wrap, ReadHeaderTimeout: 10 * time.Second, ConnContext: proxy.ConnContext}
	go l.srv.Serve(ln)
	return l, nil
}

func (l *httpLeg) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l.srv.Shutdown(ctx)
}

// ---- engine leg --------------------------------------------------------

// engineTarget answers exchanges by calling the engine's public entry
// points in the middleware's order, one span per call: CAPTCHA endpoints,
// HandleBeacon, Decide + policy.Evaluate, AdmitPage, the origin lookup,
// PreparePage + the streaming rewrite, and ObserveRequestQuiet. A throttle
// decision delays the client as the middleware's does, outside every span.
type engineTarget struct {
	st  *stack
	tr  *tracer
	ps  core.PageState
	rw  *htmlmod.StreamRewriter
	out bytes.Buffer

	admit [3]int64 // full, degraded, pass-through
	// virtual observes requests at the agent's (virtual-clock) time instead
	// of the wall clock.
	virtual bool
}

func newEngineTarget(st *stack, tr *tracer) *engineTarget {
	return &engineTarget{st: st, tr: tr}
}

func (e *engineTarget) close() {}

func (e *engineTarget) roundTrip(x *exchange) error {
	tr, eng := e.tr, e.st.eng
	root := x.span
	key := session.Key{IP: x.ip, UserAgent: x.ua}

	if rest, ok := strings.CutPrefix(x.path, bdPrefix+"captcha/"); ok {
		i := tr.begin("captcha", root, x.reqID)
		e.captcha(x, key, rest)
		tr.end(i)
		return nil
	}

	kind := beaconKind(x.path)
	var before core.Stats
	if kind == "key" {
		before = eng.Stats()
	}
	i := tr.begin("core.beacon", root, x.reqID)
	resp, ok := eng.HandleBeacon(x.ip, x.ua, x.path)
	tr.end(i)
	if ok {
		if kind == "key" {
			kind = keyBeaconKind(before, eng.Stats())
		}
		tr.rename(i, "core.beacon."+kind)
		x.status, x.contentType = resp.Status, resp.ContentType
		x.body = append([]byte(nil), resp.Body...)
		resp.Done()
		return nil
	}

	i = tr.begin("detect.decide", root, x.reqID)
	snap, verdict, tracked := eng.Decide(key)
	tr.end(i)
	if tracked {
		i = tr.begin("policy.evaluate", root, x.reqID)
		d := e.st.pol.Evaluate(*snap, verdict)
		tr.end(i)
		snap.Release()
		switch d.Action {
		case policy.Block:
			x.status, x.contentType = http.StatusForbidden, "text/plain; charset=utf-8"
			x.body = []byte("blocked: " + d.Reason + "\n")
			return nil
		case policy.Challenge:
			x.status, x.contentType = http.StatusTooManyRequests, "text/plain; charset=utf-8"
			x.body = []byte("challenge: " + d.Reason + "\n")
			return nil
		case policy.Throttle:
			x.throttled = true
		}
	}

	i = tr.begin("core.admit", root, x.reqID)
	adm := eng.AdmitPage(x.ip, x.ua)
	tr.end(i)
	e.admit[int(adm)]++

	i = tr.begin("origin", root, x.reqID)
	obj := e.st.site.Lookup(x.path)
	tr.end(i)
	x.status, x.contentType, x.location = obj.Status, obj.ContentType, obj.RedirectTo
	x.body = obj.Body
	if obj.Status == http.StatusOK && x.method == http.MethodGet &&
		strings.Contains(obj.ContentType, "text/html") && adm != core.AdmitPassThrough {
		urlPath := x.path
		if q := strings.IndexByte(urlPath, '?'); q >= 0 {
			urlPath = urlPath[:q]
		}
		i = tr.begin("core.prepare", root, x.reqID)
		var prep *htmlmod.Prepared
		if adm == core.AdmitDegraded {
			prep = eng.PreparePageDegraded(x.ip, x.ua, urlPath, &e.ps)
		} else {
			prep = eng.PreparePage(x.ip, x.ua, urlPath, &e.ps)
		}
		tr.end(i)
		i = tr.begin("htmlmod.splice", root, x.reqID)
		e.out.Reset()
		if e.rw == nil {
			e.rw = htmlmod.NewStreamRewriter(&e.out, prep)
		} else {
			e.rw.Reset(&e.out, prep)
		}
		e.rw.SetHoldLimit(2 << 20)
		_, err := e.rw.Write(obj.Body)
		if cerr := e.rw.Close(); err == nil {
			err = cerr
		}
		tr.end(i)
		if err != nil {
			return fmt.Errorf("rewrite: %v", err)
		}
		eng.RecordInstrumented(len(obj.Body), e.rw.Result().AddedBytes)
		prep.Release()
		x.body = append([]byte(nil), e.out.Bytes()...)
	}

	if adm != core.AdmitPassThrough {
		i = tr.begin("session.observe", root, x.reqID)
		when := time.Now()
		if e.virtual {
			when = x.when
		}
		eng.ObserveRequestQuiet(logfmt.Entry{
			Time: when, ClientIP: x.ip, Method: x.method, Path: x.path, Protocol: "HTTP/1.1",
			Status: obj.Status, Bytes: int64(len(obj.Body)), Referer: x.referer, UserAgent: x.ua,
			ContentType: obj.ContentType,
		})
		tr.end(i)
	}
	return nil
}

// captcha mirrors the middleware's CAPTCHA endpoints.
func (e *engineTarget) captcha(x *exchange, key session.Key, op string) {
	x.contentType = "text/plain; charset=utf-8"
	switch op {
	case "new":
		ch := e.st.cap.Issue(key)
		x.status = http.StatusOK
		x.body = []byte("id=" + ch.ID + "\nquestion=" + ch.Question + "\n")
	case "verify":
		vals := parseForm(string(x.form))
		if e.st.cap.Verify(vals["id"], vals["answer"]) {
			e.st.eng.MarkCaptchaPassed(key)
			x.status, x.body = http.StatusOK, []byte("ok\n")
		} else {
			e.st.eng.MarkCaptchaFailed(key)
			x.status, x.body = http.StatusForbidden, []byte("wrong answer\n")
		}
	default:
		x.status, x.body = http.StatusNotFound, []byte("404 page not found\n")
	}
}

func parseForm(s string) map[string]string {
	m := map[string]string{}
	for _, kv := range strings.Split(s, "&") {
		k, v, _ := strings.Cut(kv, "=")
		m[k] = v
	}
	return m
}

// beaconKind classifies an instrumentation path by its shape; "key" means a
// beacon key whose kind (mouse, decoy, replay, unknown) only the keystore
// knows.
func beaconKind(path string) string {
	rest, ok := strings.CutPrefix(path, bdPrefix)
	if !ok {
		return "none"
	}
	if q := strings.IndexByte(rest, '?'); q >= 0 {
		rest = rest[:q]
	}
	switch {
	case strings.HasPrefix(rest, "js/"):
		return "exec"
	case strings.HasPrefix(rest, "ua/"):
		return "ua_report"
	case strings.HasPrefix(rest, "hidden/"), rest == "transp_1x1.gif":
		return "hidden"
	case strings.HasPrefix(rest, "index_"):
		return "script"
	case strings.HasSuffix(rest, ".css"):
		return "css"
	case strings.HasSuffix(rest, ".jpg"):
		return "key"
	}
	return "other"
}

func keyBeaconKind(before, after core.Stats) string {
	switch {
	case after.MouseBeacons > before.MouseBeacons:
		return "mouse"
	case after.DecoyBeacons > before.DecoyBeacons:
		return "decoy"
	case after.ReplayBeacons > before.ReplayBeacons:
		return "replay"
	}
	return "unknown"
}
