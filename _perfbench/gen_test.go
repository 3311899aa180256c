package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls once must inflate the latency of every request
// queued behind the stall: the open loop times requests from when they
// were due, so coordinated omission is counted, not hidden.
func TestOpenLoopCountsStallBehindIt(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	s := newSender(srv.URL, 1)
	defer s.close()

	sched := poissonSchedule(rand.New(rand.NewSource(1)), 200, time.Second)
	rq := &request{path: "/"}
	ss := openLoop(s, sched, 1, func(int) *request { return rq })

	var slowFromDue, slowFromSend int
	for _, s := range ss {
		if s.out != outOK {
			t.Fatalf("request failed: outcome %d", s.out)
		}
		if s.latency() >= stall/3 {
			slowFromDue++
		}
		if s.end.Sub(s.start) >= stall/3 {
			slowFromSend++
		}
	}
	// At 200/s about 60 requests fall due during the stall; those due in
	// its first two thirds wait at least a third of it.
	if slowFromDue < 20 {
		t.Errorf("%d requests slow from their due time, want >= 20 (the stall must delay the queue behind it)", slowFromDue)
	}
	// Timed from the send instead, only the stalled request looks slow:
	// the omission the due-time clock exists to avoid.
	if slowFromSend > 2 {
		t.Errorf("%d requests slow from their send time, want at most 2", slowFromSend)
	}
	if lag := quantile(lags(ss), 0.99); lag < ms(stall/3) {
		t.Errorf("lag p99 %.1f ms, want >= %.1f ms", lag, ms(stall/3))
	}
}

// The generator never holds more requests in flight than connections.
func TestOpenLoopBoundsConnections(t *testing.T) {
	var cur, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	s := newSender(srv.URL, connections)
	defer s.close()

	// 2000/s against 2 ms handlers saturates two connections.
	sched := poissonSchedule(rand.New(rand.NewSource(2)), 2000, 200*time.Millisecond)
	rq := &request{path: "/"}
	openLoop(s, sched, connections, func(int) *request { return rq })
	if p := peak.Load(); p > connections {
		t.Errorf("peak in-flight %d, want <= %d", p, connections)
	}
}
