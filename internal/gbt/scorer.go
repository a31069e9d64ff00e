package gbt

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// The forest is scored by feature, not by tree (QuickScorer, Lucchese et al.,
// SIGIR 2015). Number a tree's leaves from the left. A row's exit leaf is the
// leftmost leaf that lies in the left subtree of no node the row goes right
// at, whether the row reaches that node or not. So a prediction needs, per
// tree, the union of the left subtrees of its "false" nodes, and the false
// nodes of one feature are a prefix of that feature's nodes in threshold
// order: one linear scan per feature over nodes of every tree, no dependent
// loads, in place of one pointer chase per tree.

// maxIndexedLeaves is the machine word: a tree's leaf set is one uint64. A
// wider tree is not indexed and keeps being walked.
const maxIndexedLeaves = 64

// qnode is one internal node of an indexed tree as the scorer reads it.
type qnode struct {
	thr  float64
	mask uint64 // the leaves of the node's left subtree; bit j is the tree's j-th leaf from the left
	tree int32
	key  uint32 // feature<<1, plus 1 when a missing value goes right
}

// span is a run of scorer nodes with one key.
type span struct {
	key uint32
	n   int32 // its length; the runs follow one another in nodes
}

// scorer is the by-feature index of a model's forest. It holds nothing the
// forest does not; Model.Commit keeps the two in step.
type scorer struct {
	nodes  []qnode   // by (key, threshold); equal ones in boosting order, then preorder
	spans  []span    // the runs of nodes, one per key present
	leaves []float64 // the indexed trees' leaf weights, left to right, tree after tree
	off    []int32   // off[k] is tree k's first leaf in leaves, -1 for a tree that is walked
	walked int       // how many trees are not indexed
	width  int       // one more than the largest feature the nodes name: the shortest row score can take
	fresh  []qnode   // advance's scratch: the nodes being merged in
}

// compareNodes orders scorer nodes by key, then threshold. cmp.Compare puts
// a NaN threshold, which no value is below, ahead of every other, so the
// nodes a present value goes right at are a prefix of the key's run.
func compareNodes(a, b qnode) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.thr, b.thr)
}

// advance brings the index up to the model's forest: the drop oldest trees
// it knows have been retired, and every tree of the forest beyond those it
// knows is new. On an empty index that is a build from scratch. The cost is a
// few passes over the nodes and a sort of the new ones only.
func (s *scorer) advance(m *Model, drop int) {
	if drop = min(drop, len(s.off)); drop > 0 {
		cut := int32(len(s.leaves))
		for _, o := range s.off[drop:] {
			if o >= 0 {
				cut = o
				break
			}
		}
		s.leaves = s.leaves[:copy(s.leaves, s.leaves[cut:])]
		s.off = s.off[:copy(s.off, s.off[drop:])]
		for k, o := range s.off {
			if o >= 0 {
				s.off[k] = o - cut
			}
		}
		kept := s.nodes[:0]
		for _, n := range s.nodes {
			if n.tree >= int32(drop) {
				n.tree -= int32(drop)
				kept = append(kept, n)
			}
		}
		s.nodes = kept
	}
	s.fresh = s.fresh[:0]
	for k := len(s.off); k < len(m.roots); k++ {
		s.addTree(m.treeNodes(k))
	}
	slices.SortStableFunc(s.fresh, compareNodes)
	if len(s.nodes) == 0 {
		// Nothing to merge into: the sorted nodes are the index, and a build
		// from scratch leaves no second copy of it behind as scratch.
		s.nodes, s.fresh = s.fresh, s.nodes
	} else {
		old := len(s.nodes) - 1
		s.nodes = append(s.nodes, s.fresh...)
		for w, f := len(s.nodes)-1, len(s.fresh)-1; f >= 0; w-- {
			if old >= 0 && compareNodes(s.nodes[old], s.fresh[f]) > 0 {
				s.nodes[w] = s.nodes[old]
				old--
			} else {
				s.nodes[w] = s.fresh[f]
				f--
			}
		}
	}
	s.walked = 0
	for _, o := range s.off {
		if o < 0 {
			s.walked++
		}
	}
	s.spans = s.spans[:0]
	for _, n := range s.nodes {
		if last := len(s.spans) - 1; last >= 0 && s.spans[last].key == n.key {
			s.spans[last].n++
		} else {
			s.spans = append(s.spans, span{n.key, 1})
		}
	}
	s.width = 0
	if len(s.nodes) > 0 {
		s.width = int(s.nodes[len(s.nodes)-1].key>>1) + 1
	}
}

// addTree enters the next tree of the forest, given as its preorder nodes:
// its leaves, and into fresh its internal nodes. Every internal node has two
// children, so n nodes hold (n+1)/2 leaves, and because a left subtree
// follows its root directly, its leaves are the next ones from the left.
func (s *scorer) addTree(tree []fnode) {
	if (len(tree)+1)/2 > maxIndexedLeaves {
		s.off = append(s.off, -1)
		return
	}
	k := int32(len(s.off))
	s.off = append(s.off, int32(len(s.leaves)))
	leaf := 0 // leaves to the left of the node
	for i := range tree {
		n := &tree[i]
		if n.isLeaf() {
			s.leaves = append(s.leaves, n.value)
			leaf++
			continue
		}
		left := uint(n.next[goRight] / 2) // leaves in the left subtree, at most 63
		key := uint32(n.feature) << 1
		if n.next[goMissing] != n.next[goLeft] {
			key |= 1
		}
		s.fresh = append(s.fresh, qnode{thr: n.value, mask: (1<<left - 1) << leaf, tree: k, key: key})
	}
}

// score returns the model's margin for x: the base margin plus the trees'
// leaves, in boosting order. It reads every feature the index names, on
// whatever branch, so x must hold width values.
func (s *scorer) score(m *Model, x []float64) float64 {
	// One word per tree: the leaves x cannot exit at. Up to 256 trees it
	// lives on the stack.
	var buf [256]uint64
	under := buf[:]
	if len(s.off) > len(buf) {
		under = make([]uint64, len(s.off))
	}
	nodes := s.nodes
	for _, sp := range s.spans {
		run := nodes[:sp.n]
		nodes = nodes[sp.n:]
		v := x[sp.key>>1]
		if v != v {
			// Missing: only the nodes that default right are false.
			if sp.key&1 != 0 {
				for i := range run {
					under[run[i].tree] |= run[i].mask
				}
			}
			continue
		}
		for i := range run {
			n := &run[i]
			if v < n.thr {
				break
			}
			under[n.tree] |= n.mask
		}
	}
	if s.walked > 0 {
		s.walkWide(m, x, under)
	}
	margin := m.baseMargin
	leaves, under := s.leaves, under[:len(s.off)]
	for k, o := range s.off {
		if o >= 0 {
			margin += leaves[int(o)+bits.TrailingZeros64(^under[k])]
		} else {
			margin += math.Float64frombits(under[k])
		}
	}
	return margin
}

// walkWide descends the trees that are not indexed, four at a time, and
// leaves the weight of the leaf x reaches in each, as bits, in the tree's word
// of under. The lockstep is measured where forests mix the two kinds of tree
// (BenchmarkPredictMargin/mixed; two thirds of Figure 17's predictions).
func (s *scorer) walkWide(m *Model, x []float64, under []uint64) {
	var four [4]int
	n := 0
	for k, o := range s.off {
		if o >= 0 {
			continue
		}
		four[n] = k
		if n++; n == len(four) {
			n = 0
			v0, v1, v2, v3 := walk4(m.nodes, m.roots[four[0]], m.roots[four[1]], m.roots[four[2]], m.roots[four[3]], x)
			under[four[0]], under[four[1]] = math.Float64bits(v0), math.Float64bits(v1)
			under[four[2]], under[four[3]] = math.Float64bits(v2), math.Float64bits(v3)
		}
	}
	for _, k := range four[:n] {
		under[k] = math.Float64bits(walk(m.nodes, m.roots[k], x))
	}
}

// A batch of rows is scored by feature as well, with the roles of the loops
// swapped: per feature run, each row's false nodes are still a prefix, found by
// binary search; the rows a node is false for become a bitset, which is OR-ed
// into the set of rows that cannot exit at each leaf of the node's left
// subtree. A row's exit leaf in a tree is then its first leaf from the left
// whose set does not hold it. Trees are summed in boosting order, so every
// row's margin is the same sequence of additions score makes.

// batchRows is how many rows one pass of scoreBatch takes: four words per
// leaf set, which keeps the sets of a 200-tree forest in cache.
const batchRows = 256

// batchWords is the words of a row bitset of one pass.
const batchWords = batchRows / 64

// minBatchRows is the smallest batch scoreBatch takes. A pass costs a few
// visits of every node and leaf whatever its rows, which on the trace_xgb
// forest scoring rows one at a time only amortises from about 32 rows on.
const minBatchRows = 32

// batchScratch is a scoreBatch call's working memory. It is not kept on the
// model, so any number of goroutines may score on one model at once; a call
// hands it on to the next (putScratch, getScratch), so the steady state
// allocates nothing.
type batchScratch struct {
	vals [batchRows]float64 // the present values of a run's feature
	rows [batchRows]int32   // and their rows
	at   [batchRows]int32   // and how many nodes of the run each is false at
	cuts []uint64           // per such count c, words wide: the rows false at exactly the run's first c nodes
	stay []uint64           // per leaf, words wide: the rows that cannot exit there
	end  []int32            // per indexed tree, one past its last leaf in leaves
	acc  [batchRows]float64 // the pass's margins
}

// scoreBatch writes score of every row of x into out. x must hold width
// columns and the forest at least one indexed tree.
func (s *scorer) scoreBatch(m *Model, x *Matrix, out []float64) {
	sc := getScratch()
	sc.end = resize(sc.end, len(s.off))
	next := int32(len(s.leaves))
	for k := len(s.off) - 1; k >= 0; k-- {
		if o := s.off[k]; o >= 0 {
			sc.end[k], next = next, o
		}
	}
	for r0 := 0; r0 < len(out); r0 += batchRows {
		s.scorePass(m, x, r0, out[r0:min(r0+batchRows, len(out))], sc)
	}
	putScratch(sc)
}

// scorePass scores rows r0 onward of x, one per value of out, at most
// batchRows of them.
func (s *scorer) scorePass(m *Model, x *Matrix, r0 int, out []float64, sc *batchScratch) {
	n := len(out)
	words := (n + 63) / 64
	sc.stay = resize(sc.stay, len(s.leaves)*words)
	clear(sc.stay)
	nodes := s.nodes
	for _, sp := range s.spans {
		run := nodes[:sp.n]
		nodes = nodes[sp.n:]
		// Walk the run down from the last node any row is false at: the rows
		// false at node i are those false at more than i nodes, so each step
		// adds the rows false at exactly i+1.
		var rows [batchWords]uint64
		for i := s.cutRun(x, r0, n, words, sp, run, sc) - 1; i >= 0; i-- {
			for w, set := range sc.cuts[(i+1)*words:][:words] {
				rows[w&(batchWords-1)] |= set
			}
			nd := &run[i]
			base := int(s.off[nd.tree])
			for mask := nd.mask; mask != 0; mask &= mask - 1 {
				leaf := sc.stay[(base+bits.TrailingZeros64(mask))*words:][:words]
				for w := range leaf {
					leaf[w] |= rows[w&(batchWords-1)]
				}
			}
		}
	}
	acc := &sc.acc
	for i := range out {
		acc[i] = m.baseMargin
	}
	var all [batchWords]uint64
	for w := 0; w < words; w++ {
		all[w] = ^uint64(0)
	}
	if n%64 != 0 {
		all[words-1] = 1<<(n%64) - 1
	}
	for k, o := range s.off {
		if o >= 0 {
			addExits(acc, all, sc.stay[int(o)*words:int(sc.end[k])*words], s.leaves[o:sc.end[k]], words)
			continue
		}
		for i := range out {
			acc[i] += walk(m.nodes, m.roots[k], x.Row(r0+i))
		}
	}
	copy(out, acc[:n])
}

// addExits adds to every row of acc in left its exit leaf's weight in one
// tree: the first of the tree's leaves, left to right, whose set in stay
// (words wide each) does not hold the row. It is kept out of line, where the
// scatter loop has the registers to itself.
//
//go:noinline
func addExits(acc *[batchRows]float64, left [batchWords]uint64, stay []uint64, leaves []float64, words int) {
	for j, weight := range leaves {
		var more uint64
		for w, set := range stay[j*words:][:words] {
			w &= batchWords - 1
			for exit, row := left[w]&^set, w*64; exit != 0; exit &= exit - 1 {
				acc[(row+bits.TrailingZeros64(exit))&(batchRows-1)] += weight
			}
			left[w] &= set
			more |= left[w]
		}
		if more == 0 {
			return
		}
	}
}

// cutRun finds, for each of the n rows from r0 on, how many nodes of one
// feature run it is false at, the length of its prefix of false nodes; sets
// sc.cuts to the rows by that count, and returns the largest.
func (s *scorer) cutRun(x *Matrix, r0, n, words int, sp span, run []qnode, sc *batchScratch) int {
	feature := int(sp.key >> 1)
	vals, rows := sc.vals[:0], sc.rows[:0]
	var absent [batchWords]uint64
	for r := 0; r < n; r++ {
		if v := x.At(r0+r, feature); v == v {
			vals, rows = append(vals, v), append(rows, int32(r))
		} else {
			absent[r/64] |= 1 << (r % 64)
		}
	}
	// The first node each present value is below, by binary searches in
	// lockstep: a step's trip count does not depend on the data, and the
	// rows' searches do not depend on each other. A NaN threshold is below
	// nothing.
	at := sc.at[:len(vals)]
	clear(at)
	for l := int32(len(run)); l > 0; l /= 2 {
		half, step := l/2, l-l/2
		for i, c := range at {
			at[i] = c + step*int32(b2i(!(vals[i] < run[c+half].thr)))
		}
	}
	most := int32(0)
	for _, c := range at {
		most = max(most, c)
	}
	// A missing value is false at every node that defaults right, else none.
	missing := sp.key&1 != 0 && len(vals) < n
	if missing {
		most = int32(len(run))
	}
	if most == 0 {
		return 0
	}
	sc.cuts = resize(sc.cuts, int(most+1)*words)
	clear(sc.cuts)
	for i, r := range rows {
		sc.cuts[int(at[i])*words+int(r/64)] |= 1 << (r % 64)
	}
	if missing {
		for w, set := range absent[:words] {
			sc.cuts[len(run)*words+w] |= set
		}
	}
	return int(most)
}

// memoryBytes is the index's resident size, the merge scratch included.
func (s *scorer) memoryBytes() int {
	return (len(s.nodes)+cap(s.fresh))*int(unsafe.Sizeof(qnode{})) + len(s.spans)*int(unsafe.Sizeof(span{})) +
		len(s.leaves)*int(unsafe.Sizeof(float64(0))) + len(s.off)*int(unsafe.Sizeof(int32(0)))
}
