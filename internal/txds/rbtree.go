package txds

import (
	"errors"
	"fmt"

	"kstm/internal/stm"
)

// RBTree is a transactional red-black tree, the paper's second benchmark.
// Every node is its own transactional object, so operations conflict when
// they touch overlapping search paths or rebalance the same region; keys
// that are numerically close share most of their path, which is why key
// proximity predicts conflicts well here (§4.4).
//
// Insertion and deletion search first, then fix up bottom-up (Cormen et
// al.'s RB-INSERT-FIXUP and RB-DELETE-FIXUP). The search is read-only and
// records its path on the stack, since nodes have no parent pointers; the
// fix-up climbs that path. The write set is the nodes whose colour or links
// change — near the key unless recolouring climbs — and an insert of a
// present key or a delete of an absent one acquires nothing and commits
// read-only (DESIGN.md §1.2).
type RBTree struct {
	root *stm.Object // holds *rbRoot
}

// rbRoot is the version type of the root holder.
type rbRoot struct {
	child *stm.Object
}

func cloneRBRoot(v any) any {
	c := *v.(*rbRoot)
	return &c
}

// rbNode is a node version: key, colour, and the two child object
// identities (0 = left, 1 = right; nil = leaf).
type rbNode struct {
	key  int64
	red  bool
	kids [2]*stm.Object
}

func cloneRBNode(v any) any {
	c := *v.(*rbNode)
	return &c
}

// rbMaxDepth bounds a search path: a red-black tree of n < 2³² nodes is at
// most 2·log2(n+1) deep.
const rbMaxDepth = 64

var errRBDepth = errors.New("rbtree: search path deeper than rbMaxDepth")

// rbPath is a search path from the root: obj[i] is the node at depth i and
// dir[i] the side taken from it. It holds object identities, never
// versions: once the transaction has rotated past a node, a version read on
// the way down is stale, so every node is re-opened through the Tx.
type rbPath struct {
	obj [rbMaxDepth]*stm.Object
	dir [rbMaxDepth]int
}

// NewRBTree returns an empty tree.
func NewRBTree() *RBTree {
	return &RBTree{root: stm.NewObject(&rbRoot{}, cloneRBRoot)}
}

// Name implements IntSet.
func (t *RBTree) Name() string { return string(KindRBTree) }

func newRBNodeObj(key int64, red bool) *stm.Object {
	return stm.NewObject(&rbNode{key: key, red: red}, cloneRBNode)
}

func readNode(tx *stm.Tx, obj *stm.Object) (*rbNode, error) {
	v, err := tx.Read(obj)
	if err != nil {
		return nil, err
	}
	return v.(*rbNode), nil
}

func writeNode(tx *stm.Tx, obj *stm.Object) (*rbNode, error) {
	v, err := tx.Write(obj)
	if err != nil {
		return nil, err
	}
	return v.(*rbNode), nil
}

// isRed reports whether obj is a red node; nil leaves are black.
func isRed(tx *stm.Tx, obj *stm.Object) (bool, error) {
	if obj == nil {
		return false, nil
	}
	n, err := readNode(tx, obj)
	if err != nil {
		return false, err
	}
	return n.red, nil
}

// paint sets obj's colour, writing the node only if the colour changes.
func paint(tx *stm.Tx, obj *stm.Object, red bool) error {
	cur, err := isRed(tx, obj)
	if err != nil || cur == red {
		return err
	}
	n, err := writeNode(tx, obj)
	if err != nil {
		return err
	}
	n.red = red
	return nil
}

// search descends from the root toward k, recording the path in p. It
// returns the depth of the node holding k and that node's version, or the
// depth at which k would be attached and nil.
func (t *RBTree) search(tx *stm.Tx, p *rbPath, k int64) (int, *rbNode, error) {
	rv, err := tx.Read(t.root)
	if err != nil {
		return 0, nil, err
	}
	obj := rv.(*rbRoot).child
	for d := 0; d < rbMaxDepth; d++ {
		if obj == nil {
			return d, nil, nil
		}
		n, err := readNode(tx, obj)
		if err != nil {
			return 0, nil, err
		}
		p.obj[d] = obj
		if n.key == k {
			return d, n, nil
		}
		p.dir[d] = 0
		if n.key < k {
			p.dir[d] = 1
		}
		obj = n.kids[p.dir[d]]
	}
	return 0, nil, errRBDepth
}

// relink points the link into depth i at obj: the link from the node at
// depth i-1, or the root holder's at depth 0, which is therefore written
// only when the root object changes.
func (t *RBTree) relink(tx *stm.Tx, p *rbPath, i int, obj *stm.Object) error {
	if i == 0 {
		w, err := tx.Write(t.root)
		if err != nil {
			return err
		}
		w.(*rbRoot).child = obj
		return nil
	}
	n, err := writeNode(tx, p.obj[i-1])
	if err != nil {
		return err
	}
	n.kids[p.dir[i-1]] = obj
	return nil
}

// rotate lifts the child on side up of the node at depth i into its place,
// and the path follows: p.obj[i] becomes the lifted node. The lifted node
// takes the old one's colour, and the old one becomes red if red is set and
// black otherwise.
func (t *RBTree) rotate(tx *stm.Tx, p *rbPath, i, up int, red bool) error {
	obj := p.obj[i]
	n, err := writeNode(tx, obj)
	if err != nil {
		return err
	}
	s := n.kids[up]
	sn, err := writeNode(tx, s)
	if err != nil {
		return err
	}
	n.kids[up], sn.kids[1-up] = sn.kids[1-up], obj
	sn.red, n.red = n.red, red
	p.obj[i] = s
	return t.relink(tx, p, i, s)
}

// Insert implements IntSet.
func (t *RBTree) Insert(th *stm.Thread, key uint32) (bool, error) {
	k := int64(key)
	var added bool
	err := th.Atomic(func(tx *stm.Tx) error {
		added = false
		var p rbPath
		d, n, err := t.search(tx, &p, k)
		if err != nil || n != nil {
			return err
		}
		obj := newRBNodeObj(k, d > 0)
		if err := t.relink(tx, &p, d, obj); err != nil {
			return err
		}
		p.obj[d] = obj
		added = true
		return t.insertFixup(tx, &p, d)
	})
	return added, err
}

// insertFixup restores the invariants after the red node at depth i was
// attached. While the node's parent is red: a red uncle turns the parent
// and uncle black and the grandparent red, and the violation climbs two
// levels; otherwise at most two rotations end it.
func (t *RBTree) insertFixup(tx *stm.Tx, p *rbPath, i int) error {
	for ; i >= 2; i -= 2 {
		parentRed, err := isRed(tx, p.obj[i-1])
		if err != nil || !parentRed {
			return err
		}
		g, side := p.obj[i-2], p.dir[i-2]
		gv, err := readNode(tx, g)
		if err != nil {
			return err
		}
		uncle := gv.kids[1-side]
		uncleRed, err := isRed(tx, uncle)
		if err != nil {
			return err
		}
		if !uncleRed {
			// An inner child first rotates outward; then the parent
			// rotates above the grandparent.
			if p.dir[i-1] != side {
				if err := t.rotate(tx, p, i-1, p.dir[i-1], true); err != nil {
					return err
				}
			}
			return t.rotate(tx, p, i-2, side, true)
		}
		if err := paint(tx, p.obj[i-1], false); err != nil {
			return err
		}
		if err := paint(tx, uncle, false); err != nil {
			return err
		}
		if err := paint(tx, g, true); err != nil {
			return err
		}
	}
	if i == 0 {
		return paint(tx, p.obj[0], false)
	}
	return nil
}

// Delete implements IntSet.
func (t *RBTree) Delete(th *stm.Thread, key uint32) (bool, error) {
	k := int64(key)
	var removed bool
	err := th.Atomic(func(tx *stm.Tx) error {
		removed = false
		var p rbPath
		d, yv, err := t.search(tx, &p, k)
		if err != nil || yv == nil {
			return err
		}
		// The node at depth z holds k; the node spliced out, y, ends up
		// at depth d with version yv.
		z := d
		if yv.kids[0] != nil && yv.kids[1] != nil {
			// Two children: the in-order successor, which has no
			// left child, gives up its key and is spliced out instead.
			p.dir[d] = 1
			for y := yv.kids[1]; ; y = yv.kids[0] {
				if d++; d == rbMaxDepth {
					return errRBDepth
				}
				if yv, err = readNode(tx, y); err != nil {
					return err
				}
				p.obj[d], p.dir[d] = y, 0
				if yv.kids[0] == nil {
					break
				}
			}
			zw, err := writeNode(tx, p.obj[z])
			if err != nil {
				return err
			}
			zw.key = yv.key
		}
		child := yv.kids[0]
		if child == nil {
			child = yv.kids[1]
		}
		if err := t.relink(tx, &p, d, child); err != nil {
			return err
		}
		// Acquire the spliced-out node too, as the sorted list does: its
		// version changes as it leaves the tree, so no transaction that
		// read or acquired it commits, whatever path led it there.
		yw, err := writeNode(tx, p.obj[d])
		if err != nil {
			return err
		}
		yw.kids = [2]*stm.Object{}
		removed = true
		if yv.red {
			return nil
		}
		return t.deleteFixup(tx, &p, d-1, child)
	})
	return removed, err
}

// deleteFixup restores the black height after a black node was spliced out
// from below the node at depth i, leaving x — which may be nil, so it is
// tracked by its position — one black short; i < 0 means x is the root.
// CLRS's four sibling cases: a red sibling is rotated up (1); a black
// sibling with black children turns red and the deficit climbs (2);
// otherwise at most two more rotations end it (3, 4).
func (t *RBTree) deleteFixup(tx *stm.Tx, p *rbPath, i int, x *stm.Object) error {
	for i >= 0 {
		xRed, err := isRed(tx, x)
		if err != nil {
			return err
		}
		if xRed {
			break
		}
		parent, side := p.obj[i], p.dir[i]
		pv, err := readNode(tx, parent)
		if err != nil {
			return err
		}
		w := pv.kids[1-side]
		wv, err := readNode(tx, w)
		if err != nil {
			return err
		}
		if wv.red { // case 1: x's new sibling is the old one's black child
			if err := t.rotate(tx, p, i, 1-side, true); err != nil {
				return err
			}
			p.dir[i] = side
			i++
			p.obj[i], p.dir[i] = parent, side
			continue
		}
		near, far := wv.kids[side], wv.kids[1-side]
		nearRed, err := isRed(tx, near)
		if err != nil {
			return err
		}
		farRed, err := isRed(tx, far)
		if err != nil {
			return err
		}
		if !nearRed && !farRed { // case 2
			if err := paint(tx, w, true); err != nil {
				return err
			}
			x, i = parent, i-1
			continue
		}
		if !farRed { // case 3: the path turns toward the sibling
			p.dir[i], p.obj[i+1] = 1-side, w
			if err := t.rotate(tx, p, i+1, side, true); err != nil {
				return err
			}
			far = w
		}
		if err := paint(tx, far, false); err != nil { // case 4
			return err
		}
		return t.rotate(tx, p, i, 1-side, false)
	}
	return paint(tx, x, false)
}

// Contains implements IntSet.
func (t *RBTree) Contains(th *stm.Thread, key uint32) (bool, error) {
	k := int64(key)
	var found bool
	err := th.Atomic(func(tx *stm.Tx) error {
		found = false
		rv, err := tx.Read(t.root)
		if err != nil {
			return err
		}
		obj := rv.(*rbRoot).child
		for obj != nil {
			n, err := readNode(tx, obj)
			if err != nil {
				return err
			}
			if n.key == k {
				found = true
				return nil
			}
			if n.key < k {
				obj = n.kids[1]
			} else {
				obj = n.kids[0]
			}
		}
		return nil
	})
	return found, err
}

// Keys returns the tree's keys in sorted order (by in-order walk inside one
// transaction). Intended for tests and the checker.
func (t *RBTree) Keys(th *stm.Thread) ([]uint32, error) {
	var out []uint32
	err := th.Atomic(func(tx *stm.Tx) error {
		out = out[:0]
		rv, err := tx.Read(t.root)
		if err != nil {
			return err
		}
		return t.walk(tx, rv.(*rbRoot).child, &out)
	})
	return out, err
}

func (t *RBTree) walk(tx *stm.Tx, obj *stm.Object, out *[]uint32) error {
	if obj == nil {
		return nil
	}
	n, err := readNode(tx, obj)
	if err != nil {
		return err
	}
	if err := t.walk(tx, n.kids[0], out); err != nil {
		return err
	}
	*out = append(*out, uint32(n.key))
	return t.walk(tx, n.kids[1], out)
}

// ExtractRange implements RangeStore: the tree's scheduling key is the
// dictionary key, so [lo, hi] selects keys directly. The keys are collected
// in one range-pruned walk transaction, then removed with the ordinary
// per-key Delete — each operation retries internally, so concurrent traffic
// on keys outside the (caller-quiesced) range cannot wedge the extraction.
func (t *RBTree) ExtractRange(th *stm.Thread, lo, hi uint32) ([]uint32, error) {
	var keys []uint32
	err := th.Atomic(func(tx *stm.Tx) error {
		keys = keys[:0]
		rv, err := tx.Read(t.root)
		if err != nil {
			return err
		}
		return t.walkRange(tx, rv.(*rbRoot).child, int64(lo), int64(hi), &keys)
	})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		if _, err := t.Delete(th, k); err != nil {
			// Partial extraction: keys[:i] are already out of the tree —
			// return them with the error so the caller can restore or
			// forward them instead of losing them.
			return keys[:i], err
		}
	}
	return keys, nil
}

// walkRange appends the subtree's keys within [lo, hi], pruning branches
// wholly outside the range.
func (t *RBTree) walkRange(tx *stm.Tx, obj *stm.Object, lo, hi int64, out *[]uint32) error {
	if obj == nil {
		return nil
	}
	n, err := readNode(tx, obj)
	if err != nil {
		return err
	}
	if n.key > lo {
		if err := t.walkRange(tx, n.kids[0], lo, hi, out); err != nil {
			return err
		}
	}
	if n.key >= lo && n.key <= hi {
		*out = append(*out, uint32(n.key))
	}
	if n.key < hi {
		return t.walkRange(tx, n.kids[1], lo, hi, out)
	}
	return nil
}

// InstallKeys implements RangeStore.
func (t *RBTree) InstallKeys(th *stm.Thread, keys []uint32) error {
	for _, k := range keys {
		if _, err := t.Insert(th, k); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants verifies the red-black invariants in one transaction:
// binary-search order, no red node with a red child, equal black height on
// every root-leaf path, and a black root. It returns the node count.
func (t *RBTree) CheckInvariants(th *stm.Thread) (int, error) {
	var count int
	err := th.Atomic(func(tx *stm.Tx) error {
		count = 0
		rv, err := tx.Read(t.root)
		if err != nil {
			return err
		}
		root := rv.(*rbRoot).child
		if root == nil {
			return nil
		}
		red, err := isRed(tx, root)
		if err != nil {
			return err
		}
		if red {
			return fmt.Errorf("rbtree: red root")
		}
		_, n, err := t.check(tx, root, -1, 1<<32)
		count = n
		return err
	})
	return count, err
}

// check returns (black height, node count) of the subtree and validates
// order bounds (lo, hi) exclusive.
func (t *RBTree) check(tx *stm.Tx, obj *stm.Object, lo, hi int64) (int, int, error) {
	if obj == nil {
		return 1, 0, nil
	}
	n, err := readNode(tx, obj)
	if err != nil {
		return 0, 0, err
	}
	if n.key <= lo || n.key >= hi {
		return 0, 0, fmt.Errorf("rbtree: key %d violates BST bounds (%d,%d)", n.key, lo, hi)
	}
	if n.red {
		for _, kid := range n.kids {
			kr, err := isRed(tx, kid)
			if err != nil {
				return 0, 0, err
			}
			if kr {
				return 0, 0, fmt.Errorf("rbtree: red-red violation at key %d", n.key)
			}
		}
	}
	lh, lc, err := t.check(tx, n.kids[0], lo, n.key)
	if err != nil {
		return 0, 0, err
	}
	rh, rc, err := t.check(tx, n.kids[1], n.key, hi)
	if err != nil {
		return 0, 0, err
	}
	if lh != rh {
		return 0, 0, fmt.Errorf("rbtree: black height mismatch at key %d (%d vs %d)", n.key, lh, rh)
	}
	h := lh
	if !n.red {
		h++
	}
	return h, lc + rc + 1, nil
}
