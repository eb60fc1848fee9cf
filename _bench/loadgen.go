package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A sample is what the load generator records for one request. Times
// are offsets from the window start.
type sample struct {
	idx       int           // position in the list
	sent      bool          // false: the window closed before its turn
	due       time.Duration // when the request should have been sent
	start     time.Duration // when it was sent
	end       time.Duration // when its response had been read in full
	ok        bool          // HTTP 200 and a finished job
	fail      string        // why not, when !ok
	shard     string        // X-Irfusion-Shard, set by the gateway
	respBytes int
	body      []byte // the response, for requests marked keep
}

// latency is what the user waited: from the due time in an open loop
// (so a stall counts against the requests queued behind it), from the
// send otherwise, where the two are the same instant by definition.
func (s sample) latency() time.Duration { return s.end - s.due }

// late is how long after its due time the generator sent the request.
func (s sample) late() time.Duration { return s.start - s.due }

// doneMark is how a finished job reads in the indented JSON the
// servers write; every response is checked for it before the sampled
// ones are decoded in full.
var doneMark = []byte(`"status": "done"`)

// drive sends the list over `clients` connections and returns one
// sample per request sent, with the window's wall time (first send to
// last response). Each client takes the next unsent request in list
// order. In a closed loop (open false) it sends as soon as its previous
// response is read, the due time of a request is that moment, and no
// request is started after the limit. In an open loop it waits for the
// request's due time; a request whose turn comes late, because both
// connections were busy, is sent at once and keeps its due time.
func drive(client *http.Client, url string, list []request, open bool, limit time.Duration) ([]sample, time.Duration) {
	samples := make([]sample, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	origin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				free := time.Since(origin)
				i := int(next.Add(1)) - 1
				if i >= len(list) || (!open && free >= limit) {
					return
				}
				s := &samples[i]
				s.idx, s.sent, s.due = i, true, free
				if open {
					s.due = list[i].due
					time.Sleep(s.due - free)
				}
				s.start = time.Since(origin)
				post(client, url, list[i], &buf, s)
				s.end = time.Since(origin)
			}
		}()
	}
	wg.Wait()
	wall := time.Duration(0)
	sent := samples[:0:0]
	for _, s := range samples {
		if s.sent {
			sent = append(sent, s)
			wall = max(wall, s.end)
		}
	}
	return sent, wall
}

// post sends one request and reads its response in full into buf.
func post(client *http.Client, url string, r request, buf *bytes.Buffer, s *sample) {
	resp, err := client.Post(url+"/v1/analyze", "application/json", bytes.NewReader(r.body))
	if err != nil {
		s.fail = err.Error()
		return
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		s.fail = err.Error()
		return
	}
	s.respBytes = buf.Len()
	s.shard = resp.Header.Get(shardHeader)
	head := buf.Bytes()[:min(buf.Len(), 256)]
	switch {
	case resp.StatusCode != http.StatusOK:
		s.fail = fmt.Sprintf("HTTP %d: %.200s", resp.StatusCode, head)
	case !bytes.Contains(head, doneMark):
		s.fail = fmt.Sprintf("job not done: %.200s", head)
	default:
		s.ok = true
	}
	if r.keep {
		s.body = bytes.Clone(buf.Bytes())
	}
}

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between the two nearest order statistics; p = 50 is
// the usual median. It returns NaN for no values.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
