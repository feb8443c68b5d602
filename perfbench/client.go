package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"botdetect/internal/agents"
)

// exchange is one request as the generator issues it and the response it
// got back.
type exchange struct {
	method, path, ip, ua, referer string
	form                          []byte // POST body (x-www-form-urlencoded); nil for GET
	reqID                         int64  // trace request id (0: untraced)
	span                          int    // index of the request's root span when traced
	when                          time.Time
	throttled                     bool // engine leg: the policy throttled this request

	status      int
	contentType string
	location    string
	body        []byte
}

// target answers exchanges: a keep-alive HTTP connection (to the proxy
// process or the in-process traced stack) or the engine leg.
type target interface {
	roundTrip(x *exchange) error
	close()
}

// httpConn is a minimal HTTP/1.1 client over one keep-alive TCP connection.
// It spawns no goroutines, so the generator's concurrency is exactly its
// connection count.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	h := &httpConn{addr: addr}
	return h, h.redial()
}

func (h *httpConn) redial() error {
	if h.c != nil {
		h.c.Close()
	}
	c, err := net.DialTimeout("tcp", h.addr, 5*time.Second)
	if err != nil {
		h.c = nil
		return err
	}
	h.c = c
	h.br = bufio.NewReaderSize(c, 32<<10)
	return nil
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

func (h *httpConn) roundTrip(x *exchange) error {
	if h.c == nil {
		if err := h.redial(); err != nil {
			return err
		}
	}
	b := h.buf[:0]
	b = append(b, x.method...)
	b = append(b, ' ')
	b = appendRequestTarget(b, x.path)
	b = append(b, " HTTP/1.1\r\nHost: www.example.com\r\nUser-Agent: "...)
	b = append(b, x.ua...)
	b = append(b, "\r\nX-Forwarded-For: "...)
	b = append(b, x.ip...)
	if x.referer != "" {
		b = append(b, "\r\nReferer: "...)
		b = append(b, x.referer...)
	}
	if x.reqID != 0 {
		b = append(b, "\r\n"+traceHeader+": "...)
		b = strconv.AppendInt(b, x.reqID, 10)
	}
	if x.form != nil {
		b = append(b, "\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(x.form)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, x.form...)
	h.buf = b
	h.c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := h.c.Write(b); err != nil {
		h.close()
		return err
	}
	var req *http.Request
	if x.method == http.MethodHead {
		req = headRequest // tells the reader the response has no body
	}
	resp, err := http.ReadResponse(h.br, req)
	if err != nil {
		h.close()
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		h.close()
		return err
	}
	if resp.Close {
		h.close()
	}
	x.status = resp.StatusCode
	x.contentType = resp.Header.Get("Content-Type")
	x.location = resp.Header.Get("Location")
	x.body = body
	return nil
}

// throttleDelay is the middleware's constant service delay for a
// throttled request.
const throttleDelay = 10 * time.Millisecond

var headRequest = &http.Request{Method: http.MethodHead}

// appendRequestTarget writes the path as a request-line target, escaping
// only bytes that cannot appear there; the proxy sees the agent's path as
// sent.
func appendRequestTarget(b []byte, p string) []byte {
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c <= ' ' || c >= 0x7f {
			b = append(b, '%', "0123456789ABCDEF"[c>>4], "0123456789ABCDEF"[c&15])
			continue
		}
		b = append(b, c)
	}
	return b
}

// agentState tracks the agent a client is currently serving: ground truth
// for the quality figures.
type agentState struct {
	human    bool
	refused  bool // ever answered 403/429
	answered bool // solved a CAPTCHA after a challenge
	ip, ua   string
}

// counters is per-connection accounting, read after the connection's
// goroutine has finished.
type counters struct {
	attempted     int64
	failed        int64
	humanRequests int64
	humanRefused  int64
	firstErrors   []string
}

// genClient adapts a target to agents.Client: it translates the agents'
// CAPTCHA pseudo-path into the proxy's challenge exchange, checks every
// response with the origin oracle, and keeps the per-connection counts.
type genClient struct {
	t      target
	or     *oracle
	cnt    counters
	cur    *agentState
	tracer *tracer // nil when untraced
	rootSp string  // name of the client-side root span
	// answerChallenges makes human agents solve the CAPTCHA the first time
	// they are shown the challenge interstitial (429), as the page asks.
	answerChallenges bool
	// serial, when set, serialises the engine leg's two connections so each
	// span measures one call with no other request in flight.
	serial *sync.Mutex
}

func (g *genClient) Do(req agents.Request) agents.Response {
	if req.Path == agents.CaptchaSolvePath {
		return g.solveCaptcha(req)
	}
	x := exchange{method: req.Method, path: req.Path, ip: req.IP, ua: req.UserAgent, referer: req.Referer, when: req.Time}
	g.do(&x)
	return agents.Response{Status: x.status, ContentType: x.contentType, Body: x.body, RedirectTo: x.location}
}

// do runs one exchange with accounting and the oracle check.
func (g *genClient) do(x *exchange) {
	g.cnt.attempted++
	if g.serial != nil {
		g.serial.Lock()
	}
	if g.tracer != nil {
		x.span = g.tracer.begin(g.rootSp, -1, 0)
		x.reqID = int64(x.span) + 1
		g.tracer.setReq(x.span, x.reqID)
	}
	err := g.t.roundTrip(x)
	if g.tracer != nil {
		g.tracer.end(x.span)
	}
	if g.serial != nil {
		g.serial.Unlock()
	}
	if x.throttled {
		time.Sleep(throttleDelay)
	}
	if err == nil {
		err = g.or.check(x.method, x.path, x.status, x.contentType, x.location, x.body)
	}
	if err != nil {
		g.cnt.failed++
		if len(g.cnt.firstErrors) < 5 {
			g.cnt.firstErrors = append(g.cnt.firstErrors, fmt.Sprintf("%s %s: %v", x.method, x.path, err))
		}
		x.status, x.body = 0, nil
	}
	refused := x.status == http.StatusForbidden || x.status == http.StatusTooManyRequests
	if g.answerChallenges && g.cur != nil && g.cur.human && x.status == http.StatusTooManyRequests && !g.cur.answered {
		// A person shown the CAPTCHA interstitial solves it once; the
		// refused request itself is not retried.
		g.cur.answered = true
		defer g.solveCaptcha(agents.Request{IP: x.ip, UserAgent: x.ua, Referer: x.referer})
	}
	if g.cur != nil {
		if g.cur.human {
			g.cnt.humanRequests++
			if refused {
				g.cnt.humanRefused++
			}
		}
		if refused {
			g.cur.refused = true
		}
	}
}

// solveCaptcha fetches a challenge and answers it, as a person who takes
// the optional CAPTCHA would.
func (g *genClient) solveCaptcha(req agents.Request) agents.Response {
	x := exchange{method: "GET", path: bdPrefix + "captcha/new", ip: req.IP, ua: req.UserAgent, referer: req.Referer}
	g.do(&x)
	if x.status != http.StatusOK {
		return agents.Response{Status: x.status}
	}
	var id, question string
	for _, line := range strings.Split(string(x.body), "\n") {
		if v, ok := strings.CutPrefix(line, "id="); ok {
			id = v
		} else if v, ok := strings.CutPrefix(line, "question="); ok {
			question = v
		}
	}
	answer, ok := solveArithmetic(question)
	if !ok {
		g.cnt.failed++
		return agents.Response{}
	}
	form := url.Values{"id": {id}, "answer": {strconv.Itoa(answer)}}.Encode()
	v := exchange{method: "POST", path: bdPrefix + "captcha/verify", ip: req.IP, ua: req.UserAgent, referer: req.Referer, form: []byte(form)}
	g.do(&v)
	if v.status != http.StatusOK {
		// The arithmetic answer is always right; a refusal is a fault.
		g.cnt.failed++
		if len(g.cnt.firstErrors) < 5 {
			g.cnt.firstErrors = append(g.cnt.firstErrors, fmt.Sprintf("captcha answer rejected: %q", question))
		}
	}
	return agents.Response{Status: v.status, ContentType: v.contentType, Body: v.body}
}

// solveArithmetic answers "What is A plus|minus|times B?".
func solveArithmetic(q string) (int, bool) {
	f := strings.Fields(strings.TrimSuffix(q, "?"))
	if len(f) != 5 {
		return 0, false
	}
	a, err1 := strconv.Atoi(f[2])
	b, err2 := strconv.Atoi(f[4])
	if err1 != nil || err2 != nil {
		return 0, false
	}
	switch f[3] {
	case "plus":
		return a + b, true
	case "minus":
		return a - b, true
	case "times":
		return a * b, true
	}
	return 0, false
}

// mergeCounters folds per-connection counts into the result and reports
// the first errors seen.
func mergeCounters(res *result, cs ...*counters) {
	for _, c := range cs {
		res.attempted += c.attempted
		res.failed += c.failed
		for _, e := range c.firstErrors {
			fmt.Fprintln(os.Stderr, "perfbench: failed request:", e)
		}
	}
}

func pidSelf() int { return os.Getpid() }
