package check

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// GoroutineSnapshot returns one line per live goroutine — its ID and
// creation site, "goroutine N created by F" — sorted, for leak
// detection by snapshot-and-diff.  A goroutine keeps its ID for life,
// so the ID is what tells a goroutine that existed before from a new
// one; its state is left out, since a goroutine that merely changed
// state between snapshots (a test runner that had not yet parked on
// its subtest when the first snapshot was taken) is not a leak.  The
// creation site says where a leaked goroutine was born.
func GoroutineSnapshot() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for _, block := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(block, "\n")
		header := lines[0]
		if !strings.HasPrefix(header, "goroutine ") {
			continue
		}
		// "goroutine 17 [chan receive]:" → "goroutine 17".
		if i := strings.Index(header, " ["); i >= 0 {
			header = header[:i]
		}
		created := ""
		for _, l := range lines[1:] {
			if strings.HasPrefix(l, "created by ") {
				created = strings.TrimSpace(l)
				break
			}
		}
		out = append(out, header+" "+created)
	}
	sort.Strings(out)
	return out
}

// CheckNoLeaks compares the current goroutines against a snapshot
// taken before the operation under test, retrying for up to window so
// goroutines that are merely still winding down (worker pools draining
// after cancellation) are not reported.  It returns nil when every
// goroutine either existed before or has exited, and otherwise an
// error listing the leaked headers.
func CheckNoLeaks(before []string, window time.Duration) error {
	deadline := time.Now().Add(window)
	for {
		leaked := diffGoroutines(before, GoroutineSnapshot())
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("check: %d leaked goroutine(s):\n  %s",
				len(leaked), strings.Join(leaked, "\n  "))
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// diffGoroutines returns the entries of after not accounted for by
// before, treating equal headers as interchangeable (multiset
// difference over the sorted slices).
func diffGoroutines(before, after []string) []string {
	var leaked []string
	i := 0
	for _, a := range after {
		for i < len(before) && before[i] < a {
			i++
		}
		if i < len(before) && before[i] == a {
			i++
			continue
		}
		leaked = append(leaked, a)
	}
	return leaked
}
