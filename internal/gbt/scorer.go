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
// forest does not; Model.Update keeps the two in step.
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

// memoryBytes is the index's resident size, the merge scratch included.
func (s *scorer) memoryBytes() int {
	return (len(s.nodes)+cap(s.fresh))*int(unsafe.Sizeof(qnode{})) + len(s.spans)*int(unsafe.Sizeof(span{})) +
		len(s.leaves)*int(unsafe.Sizeof(float64(0))) + len(s.off)*int(unsafe.Sizeof(int32(0)))
}
