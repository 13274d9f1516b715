package check

import (
	"strings"
	"testing"
	"time"
)

func TestCheckNoLeaksClean(t *testing.T) {
	before := GoroutineSnapshot()
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	if err := CheckNoLeaks(before, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNoLeaksDetects(t *testing.T) {
	before := GoroutineSnapshot()
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	go func() {
		close(started)
		<-block
	}()
	<-started
	err := CheckNoLeaks(before, 50*time.Millisecond)
	if err == nil {
		t.Fatal("want a leak report for the still-blocked goroutine")
	}
	if !strings.Contains(err.Error(), "leaked goroutine") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

func TestDiffGoroutinesMultiset(t *testing.T) {
	before := []string{"[chan receive] created by a", "[chan receive] created by a", "[select] created by b"}
	after := []string{"[chan receive] created by a", "[chan receive] created by a", "[chan receive] created by a", "[select] created by b"}
	leaked := diffGoroutines(before, after)
	if len(leaked) != 1 || leaked[0] != "[chan receive] created by a" {
		t.Fatalf("want exactly the third duplicate reported, got %v", leaked)
	}
	if got := diffGoroutines(after, before); got != nil {
		t.Fatalf("shrinking should report nothing, got %v", got)
	}
}

// TestCheckNoLeaksStateChange pins that a goroutine which existed at
// the snapshot is not reported however its state changed since: it is
// parked on one channel when the snapshot is taken and on another
// after.
func TestCheckNoLeaksStateChange(t *testing.T) {
	first, second, moved := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer close(second)
	go func() {
		<-first
		close(moved)
		select {
		case <-second:
		case <-time.After(time.Minute):
		}
	}()
	time.Sleep(10 * time.Millisecond) // let it park on first
	before := GoroutineSnapshot()
	close(first)
	<-moved
	if err := CheckNoLeaks(before, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
