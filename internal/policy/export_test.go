package policy

// MemoLen exposes the size of XGBDown's per-burst score memo to the
// external differential tests.
func (p *XGBDown) MemoLen() int { return len(p.memo) }
