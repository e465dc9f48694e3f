package gateway

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"lsdgnn/internal/mem"
)

// TestMain holds the whole suite to two leak checks. Once the goroutines
// the tests started have had a few seconds to wind down (an abandoned
// batch finishes in the background), none may remain, and every mem.Pool
// Get taken on this package's paths must have been balanced by a Put. A
// -fuzz run skips the goroutine count: the fuzzing engine leaves its own
// signal handler running.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); !fuzzing && n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		if !fuzzing && n > base {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "goroutine leak check: %d goroutines left, %d before the suite\n%s\n", n, base, buf[:runtime.Stack(buf, true)])
			code = 1
		}
		if out := mem.Outstanding(); out != 0 {
			fmt.Fprintf(os.Stderr, "mem leak check: %d scratch buffers still outstanding after suite\n", out)
			code = 1
		}
	}
	os.Exit(code)
}
