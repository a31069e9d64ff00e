package policy

import (
	"sort"
	"time"

	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// The full-scan selections below are the oracles the differential tests
// hold the indexed paths to, and the baselines their benchmarks measure
// against; none is reachable from a running system.

// WindowLen exposes the size of XGBDown's burst window, and how many of its
// files hold a score, to the external differential tests.
func (p *XGBDown) WindowLen() (files, scored int) {
	for _, e := range p.win {
		if e.accesses >= 0 {
			scored++
		}
	}
	return len(p.win), scored
}

// SelectFileLinear is LRU's full scan: least recent touch, ties toward the
// lowest file id.
func (p *LRU) SelectFileLinear(tier storage.Media) *dfs.File {
	var best *dfs.File
	var bestT time.Time
	for _, f := range p.ctx.EligibleFilesInto(nil, tier) {
		t := p.ctx.LastTouch(f)
		if best == nil || t.Before(bestT) || (t.Equal(bestT) && f.ID() < best.ID()) {
			best, bestT = f, t
		}
	}
	return best
}

// SelectFileLinear is LFU's full scan.
func (p *LFU) SelectFileLinear(tier storage.Media) *dfs.File {
	var best *dfs.File
	for _, f := range p.ctx.EligibleFilesInto(nil, tier) {
		if best == nil {
			best = f
			continue
		}
		cf, cb := p.ctx.AccessCount(f), p.ctx.AccessCount(best)
		if cf > cb {
			continue
		}
		if cf < cb {
			best = f
			continue
		}
		tf, tb := p.ctx.LastTouch(f), p.ctx.LastTouch(best)
		if tf.Before(tb) || (tf.Equal(tb) && f.ID() < best.ID()) {
			best = f
		}
	}
	return best
}

// SelectFileLinear is the decayed-weight full scan: every eligible file
// decayed to now, lowest weight first, ties toward the lowest file id.
func (p *WeightDown) SelectFileLinear(tier storage.Media) *dfs.File {
	var best *dfs.File
	bestW := 0.0
	for _, f := range p.thresholdStartStop.ctx.EligibleFilesInto(nil, tier) {
		fw := p.w.Now(f)
		if best == nil || fw < bestW || (fw == bestW && f.ID() < best.ID()) {
			best, bestW = f, fw
		}
	}
	return best
}

// SelectFileLinear is XGB's selection without the window: every candidate
// collected and scored afresh, one prediction at a time.
func (p *XGBDown) SelectFileLinear(tier storage.Media) *dfs.File {
	ctx := p.xgbModel.ctx
	candidates := ctx.LRUFilesInto(nil, tier, ctx.Cfg.CandidateK)
	if len(candidates) == 0 {
		return nil
	}
	now := ctx.Clock.Now()
	var best *dfs.File
	bestProb := 2.0
	for _, f := range candidates {
		prob, ok := p.pipeline.Score(ctx.Record(f), now)
		if !ok {
			return candidates[0]
		}
		if prob < bestProb {
			best, bestProb = f, prob
		}
	}
	return best
}

// VictimWeightSumLinear is the EXD admission sum by full scan: score every
// eligible memory file, sort, and sum the covering prefix.
func (p *EXDUp) VictimWeightSumLinear(need int64) float64 {
	var scored []scoredFile
	for _, f := range p.ctx.EligibleFilesInto(nil, storage.Memory) {
		scored = append(scored, scoredFile{f: f, w: p.w.Now(f)})
	}
	return prefixSum(scored, need)
}

// UpgradeCandidatesLinear is Context.UpgradeCandidatesInto by full scan:
// every complete, selectable, non-empty live file with no memory replica,
// most recent touch first, ties toward the lowest file id, cut to k.
func UpgradeCandidatesLinear(ctx *core.Context, buf []*dfs.File, k int) []*dfs.File {
	start := len(buf)
	for _, f := range ctx.FS.LiveFiles() {
		if f.Deleted() || !ctx.FS.Complete(f) || !ctx.Selectable(f) || len(f.Blocks()) == 0 {
			continue
		}
		if f.HasReplicaOn(storage.Memory) {
			continue
		}
		buf = append(buf, f)
	}
	out := buf[start:]
	sort.Slice(out, func(i, j int) bool {
		ti, tj := ctx.LastTouch(out[i]), ctx.LastTouch(out[j])
		if !ti.Equal(tj) {
			return ti.After(tj)
		}
		return out[i].ID() < out[j].ID()
	})
	if k > 0 && len(out) > k {
		buf = buf[:start+k]
	}
	return buf
}

// LRUFilesLinear is Context.LRUFilesInto by scan and sort: the tier's
// eligible files, least recent touch first, ties toward the lowest file
// id, cut to k.
func LRUFilesLinear(ctx *core.Context, buf []*dfs.File, tier storage.Media, k int) []*dfs.File {
	start := len(buf)
	buf = ctx.EligibleFilesInto(buf, tier)
	files := buf[start:]
	sort.Slice(files, func(i, j int) bool {
		ti, tj := ctx.LastTouch(files[i]), ctx.LastTouch(files[j])
		if !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return files[i].ID() < files[j].ID()
	})
	if k > 0 && len(files) > k {
		buf = buf[:start+k]
	}
	return buf
}
