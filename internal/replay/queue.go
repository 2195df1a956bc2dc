package replay

import (
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// pendingJob is one queued submission with everything placement and
// dispatch need.
type pendingJob struct {
	q         sched.QueuedJob
	f         workload.Features
	times     core.Times
	steps     int
	gangs     []int
	distinct  bool
	straggler bool
}

// pendingKey is what the pending heap sifts: the policy-visible view of a
// job plus the slab slot holding the rest of it. It holds no pointers, so
// the collector never scans the key array, and a swap moves a few words
// instead of a whole pendingJob.
type pendingKey struct {
	q    sched.QueuedJob
	slot int32
}

// The slab grows a page of slabPage jobs at a time, so a job never moves
// while it is queued.
const (
	slabShift = 10
	slabPage  = 1 << slabShift
)

// pendingQueue orders the queue by the run's policy, ties by submission
// index — so even a policy whose Less considers two jobs equal yields a
// deterministic queue. The heap holds pendingKeys; the jobs live in a paged
// slab, and a popped job's slot is zeroed and reused, so the slab pins no
// name, gang slice or link map of a job that has left the queue.
type pendingQueue struct {
	policy sched.Policy
	keys   []pendingKey
	pages  [][]pendingJob // slot s is pages[s>>slabShift][s&(slabPage-1)]
	slots  int32          // slots ever handed out
	free   []int32        // vacated slots, reused before the slab grows
}

func (p *pendingQueue) len() int { return len(p.keys) }

func (p *pendingQueue) job(slot int32) *pendingJob {
	return &p.pages[slot>>slabShift][slot&(slabPage-1)]
}

// head returns the job at the head of the queue, which must be non-empty.
func (p *pendingQueue) head() *pendingJob { return p.job(p.keys[0].slot) }

func (p *pendingQueue) push(j pendingJob) {
	var slot int32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		if int(p.slots) == len(p.pages)*slabPage {
			p.pages = append(p.pages, make([]pendingJob, slabPage))
		}
		slot = p.slots
		p.slots++
	}
	*p.job(slot) = j
	p.keys = append(p.keys, pendingKey{q: j.q, slot: slot})
	p.up(len(p.keys) - 1)
}

// pop removes and returns the head job, which must exist, and zeroes its
// slot.
func (p *pendingQueue) pop() pendingJob {
	slot := p.keys[0].slot
	n := len(p.keys) - 1
	last := p.keys[n]
	p.keys = p.keys[:n]
	if n > 0 {
		// Walk the hole at the root down the smaller children to a leaf,
		// then sift the last key up from there: the last key usually
		// belongs near the bottom, so this takes about half the
		// comparisons of sifting it down from the root.
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && p.less(p.keys[c+1].q, p.keys[c].q) {
				c++
			}
			p.keys[i] = p.keys[c]
			i = c
		}
		p.keys[i] = last
		p.up(i)
	}
	s := p.job(slot)
	j := *s
	*s = pendingJob{}
	p.free = append(p.free, slot)
	return j
}

func (p *pendingQueue) up(i int) {
	k := p.keys[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(k.q, p.keys[parent].q) {
			break
		}
		p.keys[i] = p.keys[parent]
		i = parent
	}
	p.keys[i] = k
}

// less is the policy's order, ties by submission index, with one policy
// call: when a precedes b by index, a goes first unless the policy puts b
// strictly first; otherwise only a strict policy preference moves a ahead.
func (p *pendingQueue) less(a, b sched.QueuedJob) bool {
	if a.Index < b.Index {
		return !p.policy.Less(b, a)
	}
	return p.policy.Less(a, b)
}

// event is a job-finish event releasing GPUs back to servers.
type event struct {
	time  float64
	seq   int
	alloc []allocation
}

// eventHeap is a min-heap on completion time, ties by start sequence.
type eventHeap struct {
	items []event
}

func (h *eventHeap) len() int { return len(h.items) }

func (h *eventHeap) push(e event) {
	h.items = append(h.items, e)
	h.up(len(h.items) - 1)
}

// pop removes and returns the earliest event, which must exist, dropping
// the vacated slot's allocation reference.
func (h *eventHeap) pop() event {
	top := h.items[0]
	n := len(h.items) - 1
	last := h.items[n]
	h.items[n] = event{}
	h.items = h.items[:n]
	if n > 0 {
		// The same hole-to-leaf walk as pendingQueue.pop.
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && h.items[c+1].before(h.items[c]) {
				c++
			}
			h.items[i] = h.items[c]
			i = c
		}
		h.items[i] = last
		h.up(i)
	}
	return top
}

func (h *eventHeap) up(i int) {
	e := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = e
}

func (e event) before(o event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}
