package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"botdetect/internal/jsgen"
)

// scriptRecipe is what a page view's script body is rendered from, captured
// independently of the cache at prepare time.
type scriptRecipe struct {
	v          *jsgen.Variant
	key, token uint64
	decoys     []uint64
	digits     int
	path       string
	ip         string
}

// prepareCaptured runs one PreparePage and captures the variant it picked
// and the keys it issued. The pick is recovered by rewinding the engine's
// seed sequence one step and drawing the same seed again.
func prepareCaptured(t *testing.T, e *Engine, ip string, ps *PageState) scriptRecipe {
	t.Helper()
	seq := e.seedSeq.Load()
	e.PreparePage(ip, "Firefox/1.5", "/", ps)
	if e.seedSeq.Load() != seq+1 {
		t.Fatalf("PreparePage drew %d seeds, want 1", e.seedSeq.Load()-seq)
	}
	e.seedSeq.Store(seq)
	pick := e.scriptSeed()
	pk := ps.Keys()
	return scriptRecipe{
		v: e.pool.Pick(pick), key: pk.Key, token: pk.ScriptToken,
		decoys: append([]uint64(nil), pk.Decoys...), digits: pk.Digits,
		path: e.instrumented(ps).ScriptPath, ip: ip,
	}
}

func (r scriptRecipe) render() []byte {
	return r.v.RenderKeys(nil, r.key, r.token, r.decoys, r.digits)
}

// download fetches the recipe's script and returns a copy of the body.
func download(t *testing.T, e *Engine, r scriptRecipe) []byte {
	t.Helper()
	resp, ok := e.HandleBeacon(r.ip, "Firefox/1.5", r.path)
	if !ok || resp.Status != 200 || resp.ContentType != "application/javascript" {
		t.Fatalf("script download: ok=%v status=%d type=%q", ok, resp.Status, resp.ContentType)
	}
	body := append([]byte(nil), resp.Body...)
	resp.Done()
	return body
}

// TestScriptDownloadByteIdentical proves rendering on download changes no
// served byte: the body equals Variant.RenderKeys over the variant and keys
// captured when the page was prepared, whatever happened to the cache or the
// variant pool in between.
func TestScriptDownloadByteIdentical(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		e := New(Config{Seed: 41, ObfuscateJS: true})
		var ps PageState
		for i := 0; i < 20; i++ {
			r := prepareCaptured(t, e, fmt.Sprintf("10.20.0.%d", i), &ps)
			if got := download(t, e, r); !bytes.Equal(got, r.render()) {
				t.Fatalf("page %d: downloaded body differs from the prepare-time render", i)
			}
		}
	})

	t.Run("rotated", func(t *testing.T) {
		e := New(Config{Seed: 43, ObfuscateJS: true})
		var ps PageState
		r := prepareCaptured(t, e, "10.21.0.1", &ps)
		want := r.render()
		e.RotateScripts()
		// The rotation must have replaced the variant the page picked, or
		// this case proves nothing.
		for i := uint64(0); i < uint64(e.ScriptVariants()); i++ {
			if e.pool.Pick(i) == r.v {
				t.Fatal("test setup: rotation kept the picked variant")
			}
		}
		if got := download(t, e, r); !bytes.Equal(got, want) {
			t.Fatal("download after RotateScripts differs from the prepare-time render")
		}
	})

	t.Run("replaced", func(t *testing.T) {
		// Three-digit tokens collide within a few dozen page views; the
		// download must serve the page view that replaced the entry.
		e := New(Config{Seed: 45, ObfuscateJS: true, KeyDigits: 3})
		var ps PageState
		seen := make(map[uint64]scriptRecipe)
		for i := 0; i < 2000; i++ {
			r := prepareCaptured(t, e, fmt.Sprintf("10.22.%d.%d", i/200, i%200), &ps)
			old, dup := seen[r.token]
			if !dup {
				seen[r.token] = r
				continue
			}
			if bytes.Equal(old.render(), r.render()) {
				continue // identical recipes cannot tell old from new
			}
			if got := download(t, e, r); !bytes.Equal(got, r.render()) {
				t.Fatal("download after replacement differs from the replacing page's render")
			}
			return
		}
		t.Fatal("test setup: no script token collided")
	})

	t.Run("evicted", func(t *testing.T) {
		e := New(Config{Seed: 47, ObfuscateJS: true, Shards: 1, MaxScripts: 4})
		var ps PageState
		first := prepareCaptured(t, e, "10.23.0.1", &ps)
		for i := 0; i < 4; i++ {
			prepareCaptured(t, e, fmt.Sprintf("10.23.1.%d", i), &ps)
		}
		if got := download(t, e, first); !bytes.Equal(got, fallbackJS) {
			t.Fatalf("download of an evicted script = %q, want the fallback body", got)
		}
	})
}

// TestScriptDownloadZeroAlloc gates a warm script download: the render goes
// into a pooled buffer that Done returns, so a download allocates nothing.
func TestScriptDownloadZeroAlloc(t *testing.T) {
	e := New(Config{Seed: 49, ObfuscateJS: true, Shards: 1})
	var ps PageState
	r := prepareCaptured(t, e, "10.24.0.1", &ps)
	for i := 0; i < 100; i++ {
		resp, _ := e.HandleBeacon(r.ip, "Firefox/1.5", r.path)
		resp.Done()
	}
	allocs := testing.AllocsPerRun(300, func() {
		resp, _ := e.HandleBeacon(r.ip, "Firefox/1.5", r.path)
		resp.Done()
	})
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("script download allocated %.2f/op, want 0", allocs)
	}
}

// TestScriptCacheGauges checks the cache's entry count and byte estimate
// after N page views, through the accessor and the Prometheus exposition.
func TestScriptCacheGauges(t *testing.T) {
	const maxScripts = 64
	for _, n := range []int{0, 10, maxScripts, 200} {
		e := New(Config{Seed: 51, Shards: 1, MaxScripts: maxScripts})
		var ps PageState
		for i := 0; i < n; i++ {
			e.PreparePage(fmt.Sprintf("10.25.0.%d", i%250), "Firefox/1.5", "/", &ps)
		}
		want := min(n, maxScripts)
		entries, bytes := e.ScriptCache()
		if entries != want {
			t.Fatalf("after %d page views: %d entries, want %d", n, entries, want)
		}
		perEntry := scriptEntryBytes + 8*int64(e.Config().Decoys)
		if bytes != int64(want)*perEntry {
			t.Fatalf("after %d page views: %d bytes, want %d × %d", n, bytes, want, perEntry)
		}
		var out strings.Builder
		if err := e.Telemetry().Registry().WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			fmt.Sprintf("botdetect_script_cache_entries %d\n", want),
			fmt.Sprintf("botdetect_script_cache_bytes %d\n", int64(want)*perEntry),
		} {
			if !strings.Contains(out.String(), line) {
				t.Fatalf("after %d page views: metrics lack %q", n, line)
			}
		}
	}
}
