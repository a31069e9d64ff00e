package ml

import (
	"time"

	"octostore/internal/gbt"
	"octostore/internal/storage"
)

// FeatureSpec controls feature-vector construction (Section 4.1). The
// ablation switches UseSize/UseCreation support the Figure 15 experiment;
// disabled features are emitted as missing so the vector width is stable.
type FeatureSpec struct {
	// K is the number of access times contributing delta features.
	K int
	// MaxInterval normalises time deltas: delta/MaxInterval clamped to 1.
	// The paper suggests intervals like one month; the worked example in
	// Figure 4 uses two days, which suits short workloads.
	MaxInterval time.Duration
	// MaxSize normalises the file-size feature.
	MaxSize int64
	// UseSize includes the file-size feature (Figure 15 ablation).
	UseSize bool
	// UseCreation includes creation-time-derived features (Figure 15).
	UseCreation bool
}

// DefaultFeatureSpec returns the paper's default formulation: k=12 access
// times plus file size and creation-derived deltas.
func DefaultFeatureSpec() FeatureSpec {
	return FeatureSpec{
		K:           DefaultK,
		MaxInterval: 48 * time.Hour,
		MaxSize:     4 * storage.GB,
		UseSize:     true,
		UseCreation: true,
	}
}

// Width returns the fixed feature-vector length: file size, ref-creation,
// ref-last-access, oldest-access-creation, and K-1 consecutive deltas.
func (s FeatureSpec) Width() int { return s.K + 3 }

// norm rescales a delta to [0, 1], clamping outliers (Section 4.1:
// "normalization ... is useful for avoiding outliers from situations where
// a file was not accessed for a long time").
func (s FeatureSpec) norm(d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	v := float64(d) / float64(s.MaxInterval)
	if v > 1 {
		v = 1
	}
	return v
}

// Vector builds the feature vector of a file at reference time ref using
// only accesses at or before ref. Absent measurements (fewer than K
// accesses, or ablated features) are encoded as missing values.
//
// Layout:
//
//	[0]        file size / MaxSize
//	[1]        ref - creation
//	[2]        ref - most recent access   (missing if never accessed)
//	[3]        oldest tracked access - creation (missing if never accessed)
//	[4..K+2]   consecutive access deltas, most recent pair first
func (s FeatureSpec) Vector(rec *FileRecord, ref time.Time) []float64 {
	x := make([]float64, s.Width())
	s.VectorInto(rec, ref, x)
	return x
}

// VectorInto is Vector filling a caller-owned row of Width() values.
func (s FeatureSpec) VectorInto(rec *FileRecord, ref time.Time, x []float64) {
	x = x[:s.Width()]
	for i := range x {
		x[i] = gbt.Missing
	}
	if s.UseSize {
		v := float64(rec.Size) / float64(s.MaxSize)
		if v > 1 {
			v = 1
		}
		x[0] = v
	}
	if s.UseCreation {
		x[1] = s.norm(ref.Sub(rec.Created))
	}
	accesses := rec.AccessesBefore(ref, s.K)
	if len(accesses) == 0 {
		return
	}
	x[2] = s.norm(ref.Sub(accesses[len(accesses)-1]))
	if s.UseCreation {
		x[3] = s.norm(accesses[0].Sub(rec.Created))
	}
	slot := 4
	for i := len(accesses) - 1; i > 0 && slot < len(x); i-- {
		x[slot] = s.norm(accesses[i].Sub(accesses[i-1]))
		slot++
	}
}

// Label returns the class value for a reference time and class window:
// 1 when the file is accessed within (ref, ref+window], else 0
// (Section 4.1 "class labeling").
func Label(rec *FileRecord, ref time.Time, window time.Duration) float64 {
	if rec.AccessedIn(ref, ref.Add(window)) {
		return 1
	}
	return 0
}
