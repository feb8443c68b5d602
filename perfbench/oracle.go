package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"

	"botdetect/internal/webmodel"
)

// oracle checks every response against a synthetic site regenerated
// in-process from the seed and page count the proxy was started with.
//
//   - Origin paths return the site's status and content type; the site's
//     deliberate CGI 302s and 500s are correct answers.
//   - Non-HTML bodies (and HTML the proxy must not touch: non-200 pages) are
//     byte-identical to the origin's.
//   - An instrumented page carries the injected stylesheet, script and
//     hidden link, and equals the origin document once the injection is
//     removed.
//   - Policy refusals (403 block, 429 challenge) and instrumentation
//     responses under the beacon prefix have the proxy's documented shapes.
type oracle struct {
	site *webmodel.Site
	// blockedBody/challengePrefix are the refusal shapes of the transport
	// under test (the live proxy and the cdn simulator word them apart).
	blockedPrefix   string
	challengePrefix string
}

const bdPrefix = "/__bd/"

func newProxyOracle(site *webmodel.Site) *oracle {
	return &oracle{site: site, blockedPrefix: "blocked: ", challengePrefix: "challenge: "}
}

func newSimOracle(site *webmodel.Site) *oracle {
	return &oracle{site: site, blockedPrefix: "<html><body>blocked</body></html>", challengePrefix: "challenge: "}
}

// check returns nil when the response is correct for the request. A HEAD
// response carries no body over HTTP; the cdn simulator returns the
// origin's.
func (o *oracle) check(method, path string, status int, contentType, location string, body []byte) error {
	if strings.HasPrefix(path, bdPrefix) {
		return checkInstrumentation(path, status, contentType, body)
	}
	head := method == http.MethodHead && len(body) == 0
	switch status {
	case http.StatusForbidden:
		if head || bytes.HasPrefix(body, []byte(o.blockedPrefix)) {
			return nil
		}
		return fmt.Errorf("403 without the policy block body: %.60q", body)
	case http.StatusTooManyRequests:
		if head || bytes.HasPrefix(body, []byte(o.challengePrefix)) {
			return nil
		}
		return fmt.Errorf("429 without the policy challenge body: %.60q", body)
	}
	obj := o.site.Lookup(path)
	if status != obj.Status {
		return fmt.Errorf("status %d, origin says %d", status, obj.Status)
	}
	if contentType != obj.ContentType {
		return fmt.Errorf("content type %q, origin says %q", contentType, obj.ContentType)
	}
	if location != obj.RedirectTo {
		return fmt.Errorf("redirect to %q, origin says %q", location, obj.RedirectTo)
	}
	if head {
		return nil
	}
	if method == http.MethodGet && status == http.StatusOK && strings.Contains(obj.ContentType, "text/html") {
		return checkInstrumented(obj.Body, body)
	}
	if !bytes.Equal(body, obj.Body) {
		return fmt.Errorf("body differs from origin (%d vs %d bytes)", len(body), len(obj.Body))
	}
	return nil
}

// checkInstrumented verifies that got is the origin document orig with the
// three injections spliced in at the proxy's anchors: after <head>
// (stylesheet link and external script), inside and after the <body> tag
// (event-handler attributes and the inline user-agent reporter), and before
// </body> (the hidden trap link). Every origin byte must appear, in order,
// with nothing but those fragments between.
func checkInstrumented(orig, got []byte) error {
	headEnd := bytes.Index(orig, []byte("<head>"))
	bodyStart := bytes.Index(orig, []byte("<body"))
	bodyEnd := bytes.LastIndex(orig, []byte("</body>"))
	if headEnd < 0 || bodyStart < headEnd || bodyEnd < bodyStart {
		return fmt.Errorf("origin page lacks head/body anchors")
	}
	headEnd += len("<head>")
	bodyTagEnd := bodyStart + bytes.IndexByte(orig[bodyStart:], '>') + 1

	if !bytes.HasPrefix(got, orig[:headEnd]) {
		return fmt.Errorf("instrumented page: prefix before <head> differs")
	}
	rest := got[headEnd:]
	// Head injection, then the origin's head.
	i := bytes.Index(rest, orig[headEnd:bodyStart])
	if i < 0 {
		return fmt.Errorf("instrumented page: origin <head> content missing")
	}
	head := rest[:i]
	rest = rest[i+bodyStart-headEnd:]
	// The rewritten <body ...> tag: the origin's tag plus handler attributes.
	j := bytes.IndexByte(rest, '>')
	if j < 0 {
		return fmt.Errorf("instrumented page: unterminated <body> tag")
	}
	tag := rest[:j+1]
	if !bytes.HasPrefix(tag, orig[bodyStart:bodyTagEnd-1]) ||
		!bytes.Contains(tag, []byte(`onmousemove="return `)) {
		return fmt.Errorf("instrumented page: <body> tag lacks the event handlers: %.80q", tag)
	}
	rest = rest[j+1:]
	// Inline reporter, then the origin body up to </body>.
	k := bytes.Index(rest, orig[bodyTagEnd:bodyEnd])
	if k < 0 {
		return fmt.Errorf("instrumented page: origin body content missing")
	}
	inline := rest[:k]
	rest = rest[k+bodyEnd-bodyTagEnd:]
	if !bytes.HasSuffix(rest, orig[bodyEnd:]) {
		return fmt.Errorf("instrumented page: suffix from </body> differs")
	}
	hidden := rest[:len(rest)-len(orig)+bodyEnd]

	switch {
	case !bytes.Contains(head, []byte(`rel="stylesheet"`)) || !bytes.Contains(head, []byte(`href="`+bdPrefix)):
		return fmt.Errorf("instrumented page: injected stylesheet missing: %.120q", head)
	case !bytes.Contains(head, []byte(`src="`+bdPrefix+"index_")):
		return fmt.Errorf("instrumented page: injected script missing: %.120q", head)
	case !bytes.Contains(inline, []byte("<script")) || !bytes.Contains(inline, []byte("</script>")):
		return fmt.Errorf("instrumented page: inline reporter missing")
	case !bytes.Contains(hidden, []byte(`href="`+bdPrefix+"hidden/")):
		return fmt.Errorf("instrumented page: hidden link missing: %.120q", hidden)
	}
	for _, frag := range [][]byte{head, inline, hidden} {
		if bytes.Count(frag, []byte("<")) > 8 {
			return fmt.Errorf("instrumented page: unexpected markup inside an injection")
		}
	}
	return nil
}

// checkInstrumentation verifies a response under the beacon prefix: the
// engine answers known objects with 200 and the object's type, and unknown
// beacon keys with a plain 404.
func checkInstrumentation(path string, status int, contentType string, body []byte) error {
	rest := strings.TrimPrefix(path, bdPrefix)
	if q := strings.IndexByte(rest, '?'); q >= 0 {
		rest = rest[:q]
	}
	switch {
	case rest == "captcha/new":
		if status == http.StatusOK && bytes.HasPrefix(body, []byte("id=")) && bytes.Contains(body, []byte("\nquestion=")) {
			return nil
		}
		return fmt.Errorf("captcha issue: %d %.60q", status, body)
	case rest == "captcha/verify":
		if (status == http.StatusOK && string(body) == "ok\n") || status == http.StatusForbidden {
			return nil
		}
		return fmt.Errorf("captcha verify: %d %.60q", status, body)
	}
	if status == http.StatusNotFound && strings.HasPrefix(contentType, "text/plain") {
		return nil
	}
	if status != http.StatusOK {
		return fmt.Errorf("instrumentation object %s: status %d", path, status)
	}
	var want string
	switch {
	case strings.HasPrefix(rest, "hidden/"):
		want = "text/html"
	case strings.HasSuffix(rest, ".gif"):
		want = "image/gif"
	case strings.HasSuffix(rest, ".css"):
		want = "text/css"
	case strings.HasSuffix(rest, ".js"):
		want = "application/javascript"
	case strings.HasSuffix(rest, ".jpg"):
		want = "image/jpeg"
	default:
		return fmt.Errorf("instrumentation object %s: unexpected 200", path)
	}
	if contentType != want {
		return fmt.Errorf("instrumentation object %s: content type %q, want %q", path, contentType, want)
	}
	if want == "application/javascript" && len(body) == 0 {
		return fmt.Errorf("instrumentation script %s: empty body", path)
	}
	return nil
}
