package des

import (
	"math"
	"slices"
)

// This file is the engine half of the steady-state fast-forward layer
// (DESIGN.md §12): a canonical byte encoding of the pending-event set, the
// append helpers every package reuses for its own state fingerprint, and
// Warp, which translates the whole schedule forward in time after whole
// cycles have been extrapolated analytically.

// Canonical little-endian append helpers. All fast-forward fingerprints are
// built from these, so two encodings are byte-equal exactly when every
// encoded field is bit-equal (floats compare by their IEEE-754 bits, which
// is stricter than ==: it distinguishes -0 from +0 and never equates NaNs
// with themselves spuriously — fingerprints must never say "equal" for
// states == would treat differently).

// AppendU64 appends v in little-endian order.
func AppendU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendI64 appends v via its two's-complement bit pattern.
func AppendI64(buf []byte, v int64) []byte { return AppendU64(buf, uint64(v)) }

// AppendF64 appends the IEEE-754 bit pattern of v.
func AppendF64(buf []byte, v float64) []byte { return AppendU64(buf, math.Float64bits(v)) }

// AppendTime appends a simulated instant (or duration) bit pattern.
func AppendTime(buf []byte, t Time) []byte { return AppendU64(buf, uint64(t)) }

// AppendBool appends 1 or 0.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendStr appends a length-prefixed string.
func AppendStr(buf []byte, s string) []byte {
	buf = AppendU64(buf, uint64(len(s)))
	return append(buf, s...)
}

// Pending is one firing key a caller keeps outside the queue, stood for in
// it by a keyed event (see InitKeyed): the key as the engine would have
// held it — instant, reserved sequence number — plus the label and callback
// argument EncodePending's tag callback resolves (for a ScheduleFunc event,
// its func).
type Pending struct {
	At    Time
	Seq   uint64
	Label string
	Arg   any
}

// EncodePending appends a canonical encoding of the pending-event set to buf
// and returns the extended slice. The set is every queued event except keyed
// ones, plus the caller's extra entries — the keys the keyed events stand
// for — so a keyed event plus its owner's entries encodes byte-identically to
// one plain event per key. Entries are encoded in firing order — sorted by
// (time, sequence), the key dispatch uses — so which structure holds an
// event (heap or monotone lane) is invisible, exactly as it is in the
// firing order. Each entry contributes its label, an identity tag
// resolved by the caller's tag callback (distinguishing same-label events,
// e.g. which running kernel a "gpu.finish" key belongs to), and its firing
// instant relative to the current clock. Absolute times and raw sequence
// numbers are excluded: two boundaries one cycle apart must encode
// identically, and only relative times and relative order recur.
//
// Two equal encodings imply the same future dispatch sequence: the multiset
// of (label, tag, offset) triples matches and so does the relative order of
// same-instant events, while events scheduled after the snapshot draw fresh
// sequence numbers larger than every pending one in both worlds.
//
// extra, when non-nil, appends the caller's entries to the slice it is
// given and returns it. The engine's state is untouched; scratch is
// retained for reuse.
func (e *Engine) EncodePending(buf []byte, extra func(dst []Pending) []Pending, tag func(label string, arg any) uint64) []byte {
	sc := e.encScratch[:0]
	for _, ev := range e.queue {
		sc = append(sc, Pending{At: ev.at, Seq: ev.seq, Label: ev.label, Arg: ev.arg})
	}
	for _, ev := range e.mono[e.monoHead:] {
		sc = append(sc, Pending{At: ev.at, Seq: ev.seq, Label: ev.label, Arg: ev.arg})
	}
	if extra != nil {
		sc = extra(sc)
	}
	slices.SortFunc(sc, func(a, b Pending) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		if a.Seq < b.Seq {
			return -1
		}
		return 1
	})
	buf = AppendU64(buf, uint64(len(sc)))
	for _, p := range sc {
		buf = AppendStr(buf, p.Label)
		buf = AppendU64(buf, tag(p.Label, p.Arg))
		buf = AppendTime(buf, p.At-e.now)
	}
	e.encScratch = sc
	return buf
}

// Warp advances the clock by delta and translates every pending event with
// it — heap, monotone lane and keyed lane alike — preserving all relative
// offsets; keys kept outside the queue (see InitKeyed) are their owner's to
// translate. No structure is reordered: adding one constant to every key
// preserves the heap order and keeps the monotone lane nondecreasing.
// Sequence numbers are untouched, so pending events still order before
// anything scheduled after the warp — exactly as they would had the skipped
// interval been simulated.
func (e *Engine) Warp(delta Time) {
	e.now += delta
	for _, evs := range [][]*Event{e.queue, e.mono[e.monoHead:], e.keyed} {
		for _, ev := range evs {
			ev.at += delta
		}
	}
}
