package core

// Survey checkpoint codec. A checkpoint is an RCKP container
// (internal/snapshot, format documented in internal/snapshot/FORMAT.md)
// capturing a survey run between two configuration rounds: the
// configuration fingerprint the run was started with, the survey-level
// progress, the partial probe rounds, the seeded collector views, the
// completed SURF result (once the second experiment is in flight), a
// nested engine snapshot (bgp.Network.Snapshot), and the telemetry
// registry state (telemetry.Registry.SaveState).
//
// The CLI and the resident service share this format and the
// CheckpointDir that stores it — a job interrupted under either front
// end resumes under the other.

import (
	"fmt"
	"sort"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/probe"
	"repro/internal/simnet"
	snap "repro/internal/snapshot"
	"repro/internal/telemetry"
)

// RCKP section ids, in file order.
const (
	ckSecFingerprint = 1
	ckSecProgress    = 2
	ckSecRounds      = 3
	ckSecOrigins     = 4
	ckSecSURF        = 5
	ckSecEngine      = 6
	ckSecTelemetry   = 7
)

// CheckpointFingerprint identifies the run configuration a checkpoint
// belongs to; resumption only accepts checkpoints whose fingerprint
// matches the current configuration. The worker count is deliberately
// excluded: output is identical for any worker count, so a 4-worker
// run may resume a 1-worker run's checkpoint.
type CheckpointFingerprint struct {
	Seed        int64
	Small       bool
	Incremental bool
	Faults      float64
	NSeeds      int
}

// Checkpoint is one RCKP file: a survey run between two configuration
// rounds. Survey.Checkpoint hands one out after every round with the
// progress fields set; the caller adds the fingerprint and the nested
// engine and telemetry states and persists it. Survey.Resume takes one
// back to continue from.
type Checkpoint struct {
	Fingerprint CheckpointFingerprint
	// Phase is 0 while the SURF experiment runs, 1 for Internet2.
	Phase int
	// Done counts completed configuration rounds of the in-flight
	// experiment.
	Done int
	// ChurnStart is the in-flight experiment's churn-log index at the
	// start of its measured window.
	ChurnStart int
	// Start is the in-flight experiment's start time. For Phase 1 this
	// is the value a resumed run cannot recompute (it derives from the
	// network clock after the SURF teardown).
	Start bgp.Time
	// Rounds and Origins are the in-flight experiment's partial output:
	// its probe rounds and seeded per-peer collector origins.
	Rounds  []*probe.Round
	Origins map[uint32]*PeerView
	// SURF is the completed first experiment's result (Phase 1 only).
	SURF *Result
	// Engine is a nested bgp.Network.Snapshot; Telemetry a nested
	// telemetry.Registry.SaveState (empty when the run had no registry).
	Engine    []byte
	Telemetry []byte
	// Span is the in-flight experiment span reopened by restoring
	// Telemetry (never encoded).
	Span *telemetry.Span
}

// Encode serializes the checkpoint as an RCKP container.
func (c *Checkpoint) Encode() []byte {
	w := snap.NewWriter(snap.CheckpointMagic, snap.CheckpointVersion)

	var fp snap.Enc
	fp.I64(c.Fingerprint.Seed)
	fp.Bool(c.Fingerprint.Small)
	fp.Bool(c.Fingerprint.Incremental)
	fp.F64(c.Fingerprint.Faults)
	fp.Uvarint(uint64(c.Fingerprint.NSeeds))
	w.Section(ckSecFingerprint, fp.Bytes())

	var pr snap.Enc
	pr.U8(uint8(c.Phase))
	pr.Uvarint(uint64(c.Done))
	pr.Uvarint(uint64(c.ChurnStart))
	pr.I64(int64(c.Start))
	w.Section(ckSecProgress, pr.Bytes())

	var rd snap.Enc
	rd.Uvarint(uint64(len(c.Rounds)))
	for _, r := range c.Rounds {
		encCkRound(&rd, r)
	}
	w.Section(ckSecRounds, rd.Bytes())

	var og snap.Enc
	encCkOrigins(&og, c.Origins)
	w.Section(ckSecOrigins, og.Bytes())

	var sf snap.Enc
	if c.SURF != nil {
		encCkResult(&sf, c.SURF)
	}
	w.Section(ckSecSURF, sf.Bytes())

	w.Section(ckSecEngine, c.Engine)
	w.Section(ckSecTelemetry, c.Telemetry)
	return w.Bytes()
}

// DecodeCheckpoint parses an RCKP container, validating section
// structure and every nested count; any corruption the container's
// CRCs or these checks catch yields an error, never a panic.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	secs, err := snap.DecodeSections(data, snap.CheckpointMagic, snap.CheckpointVersion)
	if err != nil {
		return nil, err
	}
	if len(secs) != 7 {
		return nil, fmt.Errorf("%w: %d sections, want 7", snap.ErrCorrupt, len(secs))
	}
	for i, want := range []byte{ckSecFingerprint, ckSecProgress, ckSecRounds, ckSecOrigins, ckSecSURF, ckSecEngine, ckSecTelemetry} {
		if secs[i].ID != want {
			return nil, fmt.Errorf("%w: section %d has id %d, want %d", snap.ErrCorrupt, i, secs[i].ID, want)
		}
	}
	c := &Checkpoint{}

	d := snap.NewDec(secs[0].Payload)
	c.Fingerprint.Seed = d.I64()
	c.Fingerprint.Small = d.Bool()
	c.Fingerprint.Incremental = d.Bool()
	c.Fingerprint.Faults = d.F64()
	c.Fingerprint.NSeeds = int(d.Uvarint())
	if err := d.Done(); err != nil {
		return nil, err
	}

	d = snap.NewDec(secs[1].Payload)
	c.Phase = int(d.U8())
	c.Done = int(d.Uvarint())
	c.ChurnStart = int(d.Uvarint())
	c.Start = bgp.Time(d.I64())
	if err := d.Done(); err != nil {
		return nil, err
	}
	if c.Phase > 1 {
		return nil, fmt.Errorf("%w: phase %d", snap.ErrCorrupt, c.Phase)
	}

	d = snap.NewDec(secs[2].Payload)
	n := d.Count(1)
	c.Rounds = make([]*probe.Round, 0, n)
	for i := 0; i < n; i++ {
		r, err := decCkRound(d)
		if err != nil {
			return nil, err
		}
		c.Rounds = append(c.Rounds, r)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}

	d = snap.NewDec(secs[3].Payload)
	if c.Origins, err = decCkOrigins(d); err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}

	if len(secs[4].Payload) > 0 {
		d = snap.NewDec(secs[4].Payload)
		if c.SURF, err = decCkResult(d); err != nil {
			return nil, err
		}
		if err := d.Done(); err != nil {
			return nil, err
		}
	}
	if c.Phase == 1 && c.SURF == nil {
		return nil, fmt.Errorf("%w: phase 1 checkpoint without a SURF result", snap.ErrCorrupt)
	}

	c.Engine = secs[5].Payload
	c.Telemetry = secs[6].Payload
	return c, nil
}

// --- field codecs ---

func encCkPrefix(e *snap.Enc, p netutil.Prefix) {
	e.U32(p.Addr())
	e.U8(uint8(p.Bits()))
}

func decCkPrefix(d *snap.Dec) (netutil.Prefix, error) {
	addr := d.U32()
	bits := int(d.U8())
	if err := d.Err(); err != nil {
		return netutil.Prefix{}, err
	}
	if bits > 32 {
		return netutil.Prefix{}, fmt.Errorf("%w: prefix length %d", snap.ErrCorrupt, bits)
	}
	return netutil.PrefixFrom(addr, bits), nil
}

func encCkRound(e *snap.Enc, r *probe.Round) {
	e.String(r.Config)
	e.I64(int64(r.Start))
	e.I64(int64(r.End))
	e.Uvarint(uint64(len(r.Records)))
	for _, rec := range r.Records {
		encCkPrefix(e, rec.Prefix)
		e.U32(rec.Dst)
		e.U8(uint8(rec.Proto))
		e.U16(rec.Port)
		e.I64(int64(rec.SentAt))
		e.Bool(rec.Responded)
		e.U8(uint8(rec.VLAN))
		e.F64(rec.RTTms)
		e.Uvarint(uint64(rec.Retries))
	}
}

func decCkRound(d *snap.Dec) (*probe.Round, error) {
	r := &probe.Round{Config: d.String()}
	r.Start = bgp.Time(d.I64())
	r.End = bgp.Time(d.I64())
	n := d.Count(19)
	if n > 0 {
		r.Records = make([]probe.Record, 0, n)
	}
	for i := 0; i < n; i++ {
		var rec probe.Record
		var err error
		if rec.Prefix, err = decCkPrefix(d); err != nil {
			return nil, err
		}
		rec.Dst = d.U32()
		rec.Proto = simnet.Proto(d.U8())
		rec.Port = d.U16()
		rec.SentAt = bgp.Time(d.I64())
		rec.Responded = d.Bool()
		rec.VLAN = simnet.VLAN(d.U8())
		rec.RTTms = d.F64()
		rec.Retries = int(d.Uvarint())
		r.Records = append(r.Records, rec)
	}
	return r, d.Err()
}

func encCkOrigins(e *snap.Enc, origins map[uint32]*PeerView) {
	peers := make([]uint32, 0, len(origins))
	for as := range origins {
		peers = append(peers, as)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	e.Uvarint(uint64(len(peers)))
	for _, as := range peers {
		pv := origins[as]
		e.U32(as)
		e.U32(pv.FinalOrigin)
		seen := make([]uint32, 0, len(pv.OriginsSeen))
		for o, ok := range pv.OriginsSeen {
			if ok {
				seen = append(seen, o)
			}
		}
		sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
		e.Uvarint(uint64(len(seen)))
		for _, o := range seen {
			e.U32(o)
		}
	}
}

func decCkOrigins(d *snap.Dec) (map[uint32]*PeerView, error) {
	n := d.Count(9)
	out := make(map[uint32]*PeerView, n)
	for i := 0; i < n; i++ {
		as := d.U32()
		pv := &PeerView{FinalOrigin: d.U32(), OriginsSeen: map[uint32]bool{}}
		m := d.Count(4)
		for j := 0; j < m; j++ {
			pv.OriginsSeen[d.U32()] = true
		}
		out[as] = pv
	}
	return out, d.Err()
}

func encCkResult(e *snap.Enc, res *Result) {
	e.String(res.Name)
	e.Uvarint(uint64(len(res.Configs)))
	for _, c := range res.Configs {
		e.Uvarint(uint64(c.RE))
		e.Uvarint(uint64(c.Commodity))
	}
	e.Uvarint(uint64(len(res.ConfigTimes)))
	for _, t := range res.ConfigTimes {
		e.I64(int64(t))
	}
	e.Uvarint(uint64(len(res.Rounds)))
	for _, r := range res.Rounds {
		encCkRound(e, r)
	}
	prefixes := make([]netutil.Prefix, 0, len(res.PerPrefix))
	for p := range res.PerPrefix {
		prefixes = append(prefixes, p)
	}
	netutil.SortPrefixes(prefixes)
	e.Uvarint(uint64(len(prefixes)))
	for _, p := range prefixes {
		pr := res.PerPrefix[p]
		encCkPrefix(e, p)
		e.Uvarint(uint64(len(pr.Seq)))
		for _, o := range pr.Seq {
			e.U8(uint8(o))
		}
		e.U8(uint8(pr.Inference))
		e.F64(pr.Confidence)
		e.Uvarint(uint64(pr.Observed))
	}
	e.Uvarint(uint64(len(res.Churn)))
	for _, u := range res.Churn {
		e.I64(int64(u.At))
		e.U32(uint32(u.Collector))
		e.U32(uint32(u.PeerAS))
		encCkPrefix(e, u.Prefix)
		e.Bool(u.Announce)
		e.Uvarint(uint64(len(u.Path)))
		for _, a := range u.Path {
			e.U32(uint32(a))
		}
	}
	encCkOrigins(e, res.CollectorOrigins)
}

func decCkResult(d *snap.Dec) (*Result, error) {
	res := &Result{Name: d.String()}
	n := d.Count(2)
	for i := 0; i < n; i++ {
		res.Configs = append(res.Configs, PrependConfig{RE: int(d.Uvarint()), Commodity: int(d.Uvarint())})
	}
	n = d.Count(8)
	for i := 0; i < n; i++ {
		res.ConfigTimes = append(res.ConfigTimes, bgp.Time(d.I64()))
	}
	n = d.Count(1)
	for i := 0; i < n; i++ {
		r, err := decCkRound(d)
		if err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, r)
	}
	n = d.Count(16)
	res.PerPrefix = make(map[netutil.Prefix]*PrefixResult, n)
	for i := 0; i < n; i++ {
		p, err := decCkPrefix(d)
		if err != nil {
			return nil, err
		}
		pr := &PrefixResult{Prefix: p}
		m := d.Count(1)
		for j := 0; j < m; j++ {
			pr.Seq = append(pr.Seq, RoundObs(d.U8()))
		}
		pr.Inference = Inference(d.U8())
		pr.Confidence = d.F64()
		pr.Observed = int(d.Uvarint())
		res.PerPrefix[p] = pr
	}
	n = d.Count(19)
	for i := 0; i < n; i++ {
		u := bgp.UpdateRecord{
			At:        bgp.Time(d.I64()),
			Collector: bgp.RouterID(d.U32()),
			PeerAS:    asn.AS(d.U32()),
		}
		var err error
		if u.Prefix, err = decCkPrefix(d); err != nil {
			return nil, err
		}
		u.Announce = d.Bool()
		m := d.Count(4)
		if m > 0 {
			u.Path = make(asn.Path, m)
			for j := range u.Path {
				u.Path[j] = asn.AS(d.U32())
			}
		}
		res.Churn = append(res.Churn, u)
	}
	var err error
	if res.CollectorOrigins, err = decCkOrigins(d); err != nil {
		return nil, err
	}
	return res, d.Err()
}
