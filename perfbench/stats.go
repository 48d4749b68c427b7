package main

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"semblock/internal/record"
)

// Percentiles are parts per thousand so that ranks are exact integer
// arithmetic: 0.9*100 is not 90 in floating point.
const pptMax = 1000

// tailCandidates are the percentiles a tail metric may use, highest first.
var tailCandidates = []int{999, 990, 900}

// minBeyond is how many samples must rank above a tail percentile for it to
// count as measured rather than as the few slowest samples.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the ppt percentile
// among n samples.
func rank(n, ppt int) int {
	if ppt >= pptMax {
		return n
	}
	r := (n*ppt + pptMax - 1) / pptMax
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is the number of samples ranked above the ppt percentile.
func beyond(n, ppt int) int { return n - rank(n, ppt) }

// tailPPT picks the highest of p99.9/p99/p90 that has at least minBeyond
// samples beyond it; ok is false when n is too small for any of them.
func tailPPT(n int) (ppt int, ok bool) {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// parsePercentile reads "p90", "p99", "p99.9" or "max" as parts per
// thousand.
func parsePercentile(s string) (int, error) {
	if s == "max" {
		return pptMax, nil
	}
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "p"), 64)
	if err != nil || !strings.HasPrefix(s, "p") || v <= 0 || v >= 100 {
		return 0, fmt.Errorf("percentile %q: want p90, p99, p99.9 or max", s)
	}
	return int(v*10 + 0.5), nil
}

// percentileName renders parts per thousand back as "p99.9" or "max".
func percentileName(ppt int) string {
	if ppt >= pptMax {
		return "max"
	}
	return "p" + strconv.FormatFloat(float64(ppt)/10, 'f', -1, 64)
}

// samples are raw latency observations in milliseconds.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// at returns the nearest-rank ppt percentile of sorted samples (0 when
// empty; callers check the count first).
func (s samples) at(ppt int) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), ppt)-1]
}

// tail is one tail figure: the value at the workload's fixed percentile, and
// whether that percentile meets the minBeyond rule for this sample count.
// With several windows the value is the median of the windows' tails and
// the rule applies to each window's sample count.
type tail struct {
	ppt     int
	value   float64
	n       int // samples per window
	windows int
	ruled   bool // the fixed percentile has minBeyond samples beyond it in every window
}

func (s samples) tail(ppt int) tail { return s.windowedTail(ppt, 1) }

// windowedTail splits the samples, in the order they were taken, into
// windows consecutive parts of equal size (a remainder is dropped) and
// returns the median of the parts' tails at ppt, so that a burst of host
// noise moves one window rather than the figure.
func (s samples) windowedTail(ppt, windows int) tail {
	windows = max(windows, 1)
	size := len(s) / windows
	if size == 0 {
		windows, size = 1, len(s)
	}
	var vals samples
	for w := 0; w < windows; w++ {
		vals = append(vals, s[w*size:(w+1)*size].sorted().at(ppt))
	}
	return tail{ppt: ppt, value: vals.sorted().at(500), n: size, windows: windows,
		ruled: ppt >= pptMax || beyond(size, ppt) >= minBeyond}
}

func (t tail) String() string {
	rule := "too few samples for p90"
	if ppt, ok := tailPPT(t.n); ok {
		rule = "rule picks " + percentileName(ppt)
	}
	note := ""
	if !t.ruled {
		note = fmt.Sprintf(", fewer than %d samples beyond %s", minBeyond, percentileName(t.ppt))
	}
	win := ""
	if t.windows > 1 {
		win = fmt.Sprintf(" per window, median of %d windows", t.windows)
	}
	return fmt.Sprintf("%s=%.3f n=%d%s (%s%s)", percentileName(t.ppt), t.value, t.n, win, rule, note)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule is an open-loop send plan: request i is due at start+i*every,
// whatever happened to the requests before it.
type schedule struct {
	start time.Time
	every time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.every) }

// clock abstracts time for the open-loop sender so its timing rules can be
// tested without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sendTiming is what the open-loop sender records for one request. Latency
// is measured from the due time, so a stall also charges the wait it
// imposes on every later request; late is how far behind its schedule the
// generator itself sent the request.
type sendTiming struct {
	due, sent, done time.Time
	err             error
}

func (t sendTiming) latency() time.Duration { return t.done.Sub(t.due) }
func (t sendTiming) late() time.Duration    { return t.sent.Sub(t.due) }

// runOpenLoop sends requests 0..n-1 on the schedule and returns their
// timings. send runs on the caller's goroutine, one request at a time, over
// the caller's single connection: a request that overruns makes the next
// ones late, and the lateness shows in both their latency and their late
// figure. then, when not nil, runs after each successful send on the same
// connection (a consumer drain); it is not part of the request's latency,
// but when it overruns the next request is late.
func runOpenLoop(c clock, s schedule, n int, send, then func(i int) error) []sendTiming {
	out := make([]sendTiming, 0, n)
	for i := 0; i < n; i++ {
		due := s.due(i)
		c.SleepUntil(due)
		t := sendTiming{due: due, sent: c.Now()}
		t.err = send(i)
		t.done = c.Now()
		if t.err == nil && then != nil {
			t.err = then(i)
		}
		out = append(out, t)
	}
	return out
}

// batchClock attributes candidate pairs to the ingest batch that made them:
// a pair is discovered when its higher-ID record is ingested, and record
// IDs are assigned densely in send order, so the batch holding the higher
// ID is found by binary search over the batches' first IDs. Its origin time
// is the batch's send time (closed loop) or due time (open loop), stored
// before the request goes out so a consumer that sees the pair first can
// always read it.
type batchClock struct {
	first  []record.ID    // first record ID of each batch, ascending
	origin []atomic.Int64 // UnixNano origin per batch, 0 until stamped
}

func newBatchClock(sizes []int, firstID record.ID) *batchClock {
	bc := &batchClock{first: make([]record.ID, len(sizes)), origin: make([]atomic.Int64, len(sizes))}
	id := firstID
	for i, n := range sizes {
		bc.first[i] = id
		id += record.ID(n)
	}
	return bc
}

func (bc *batchClock) stamp(batch int, t time.Time) { bc.origin[batch].Store(t.UnixNano()) }

// batchOf returns the batch that carried record id (-1 before the first).
func (bc *batchClock) batchOf(id record.ID) int {
	return sort.Search(len(bc.first), func(i int) bool { return bc.first[i] > id }) - 1
}

// originOf returns the origin time of the pair's higher-ID record's batch;
// ok is false when that record was not sent through this clock (for
// example, preloaded during set-up) or its batch was never stamped.
func (bc *batchClock) originOf(p record.Pair) (time.Time, bool) {
	hi := p.Left()
	if p.Right() > hi {
		hi = p.Right()
	}
	b := bc.batchOf(hi)
	if b < 0 {
		return time.Time{}, false
	}
	ns := bc.origin[b].Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// received is one delivery a consumer observed: the pairs and when it held
// them.
type received struct {
	at    time.Time
	pairs []record.Pair
}

// deliverLatencies turns deliveries into per-pair latencies in ms. Pairs
// whose higher-ID record came from outside the clock are skipped and
// counted.
func deliverLatencies(bc *batchClock, got []received) (lat samples, skipped int) {
	for _, r := range got {
		for _, p := range r.pairs {
			o, ok := bc.originOf(p)
			if !ok {
				skipped++
				continue
			}
			lat = append(lat, ms(r.at.Sub(o)))
		}
	}
	return lat, skipped
}

// deliveriesBeyond counts the deliveries holding at least one pair slower
// than limit. Pairs of one delivery share a receipt time, so deliveries,
// not pairs, are the independent samples of a delivery tail.
func deliveriesBeyond(bc *batchClock, got []received, limit float64) int {
	n := 0
	for _, r := range got {
		for _, p := range r.pairs {
			if o, ok := bc.originOf(p); ok && ms(r.at.Sub(o)) > limit {
				n++
				break
			}
		}
	}
	return n
}

// metricNameRE is the alphabet the benchmark manifest allows for metric
// names: a letter or digit, then letters, digits, '_', '.' and '-'.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the alphabet for units, as in "ms", "1/s", "count".
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
