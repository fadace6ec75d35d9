// Package layout models the storage architecture of §2 of the paper: data
// arrays striped over I/O nodes ("disks"), with the I/O-node-level striping
// exposed to the compiler. Each array lives in its own file (the paper's
// one-to-one array/file assumption), files are concatenated into a global
// logical byte space, and accesses happen at page-block granularity (§7.1).
//
// The package answers the two questions every other phase asks:
//
//   - which disk holds a given array element (compiler side), and
//   - which disk holds a given logical page (simulator side).
package layout

import (
	"fmt"
	"sort"

	"diskreuse/internal/ast"
	"diskreuse/internal/sema"
)

// DefaultPageSize is the access granularity for disk requests. The paper
// states accesses to disk-resident data are made at a page-block
// granularity; 4 KiB is the conventional page size.
const DefaultPageSize = 4096

// Extent records where an array's backing file sits in the global logical
// byte space.
type Extent struct {
	Array *sema.Array
	Base  int64 // global byte offset of the file start; stripe-unit aligned
}

// Layout maps arrays and pages to disks.
type Layout struct {
	PageSize int64
	Extents  []Extent
	numDisks int
	totalLen int64
}

// New builds the layout for prog. It validates the divisibility constraints
// that keep the mapping well formed: the page size must divide every
// array's stripe unit (so a page never spans two disks), and every array's
// element size must divide the page size (so an element never spans two
// pages).
func New(prog *sema.Program, pageSize int64) (*Layout, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	l := &Layout{PageSize: pageSize}
	var base int64
	for _, a := range prog.Arrays {
		s := a.Stripe
		if s.Unit%pageSize != 0 {
			return nil, fmt.Errorf("layout: array %s stripe unit %d not a multiple of page size %d",
				a.Name, s.Unit, pageSize)
		}
		if pageSize%a.ElemSize != 0 {
			return nil, fmt.Errorf("layout: array %s element size %d does not divide page size %d",
				a.Name, a.ElemSize, pageSize)
		}
		// Align the file base to the stripe unit so stripe arithmetic
		// stays local to the array.
		if rem := base % s.Unit; rem != 0 {
			base += s.Unit - rem
		}
		l.Extents = append(l.Extents, Extent{Array: a, Base: base})
		base += a.Bytes()
		if end := s.Start + s.Factor; end > l.numDisks {
			l.numDisks = end
		}
	}
	l.totalLen = base
	if l.numDisks == 0 {
		return nil, fmt.Errorf("layout: program has no striped arrays")
	}
	return l, nil
}

// NumDisks returns the number of I/O nodes the data spans.
func (l *Layout) NumDisks() int { return l.numDisks }

// TotalBytes returns the extent of the global logical byte space.
func (l *Layout) TotalBytes() int64 { return l.totalLen }

// extentOf returns the extent record for array a. Extents are built in
// Program.Arrays order, so a's extent is Extents[a.Index]; comparing the
// extent's array pointer rejects an array of another program.
func (l *Layout) extentOf(a *sema.Array) (Extent, error) {
	if a.Index < 0 || a.Index >= len(l.Extents) || l.Extents[a.Index].Array != a {
		return Extent{}, fmt.Errorf("layout: array %s not in layout", a.Name)
	}
	return l.Extents[a.Index], nil
}

// ElemByte returns the global byte offset of element lin of array a.
func (l *Layout) ElemByte(a *sema.Array, lin int64) (int64, error) {
	ext, err := l.extentOf(a)
	if err != nil {
		return 0, err
	}
	if lin < 0 || lin >= a.Elems() {
		return 0, fmt.Errorf("layout: element %d out of range for array %s (%d elements)",
			lin, a.Name, a.Elems())
	}
	return ext.Base + lin*a.ElemSize, nil
}

// SpecDisk returns the disk of the byte at file-relative offset off under
// stripe spec s — the striping rule of §2 factored out as a pure function:
// consecutive stripe-unit-sized chunks of the file go to consecutive disks
// round-robin, beginning at the start disk. ElemDisk and PageDisk apply it
// through a built Layout; the layout search's re-attribution scorer applies
// it directly to candidate specs without building one.
func SpecDisk(s ast.StripeSpec, off int64) int {
	return s.Start + int((off/s.Unit)%int64(s.Factor))
}

// ElemDisk returns the disk (I/O node) holding element lin of array a,
// per the striping rule of §2.
func (l *Layout) ElemDisk(a *sema.Array, lin int64) (int, error) {
	if _, err := l.extentOf(a); err != nil {
		return 0, err
	}
	if lin < 0 || lin >= a.Elems() {
		return 0, fmt.Errorf("layout: element %d out of range for array %s (%d elements)",
			lin, a.Name, a.Elems())
	}
	return SpecDisk(a.Stripe, lin*a.ElemSize), nil
}

// ElemPage returns the global logical page number of element lin of a.
func (l *Layout) ElemPage(a *sema.Array, lin int64) (int64, error) {
	b, err := l.ElemByte(a, lin)
	if err != nil {
		return 0, err
	}
	return b / l.PageSize, nil
}

// PageDisk maps a global logical page number to the disk holding it. It is
// the simulator-side inverse of ElemPage/ElemDisk: given the striping
// information (provided "in an external file" in the paper's simulator), it
// locates the array extent containing the page and applies its striping.
func (l *Layout) PageDisk(page int64) (int, error) {
	byteOff := page * l.PageSize
	// Extents are sorted by Base; binary-search the containing extent.
	i := sort.Search(len(l.Extents), func(i int) bool {
		return l.Extents[i].Base > byteOff
	}) - 1
	if i < 0 {
		return 0, fmt.Errorf("layout: page %d before first extent", page)
	}
	ext := l.Extents[i]
	a := ext.Array
	off := byteOff - ext.Base
	if off >= a.Bytes() {
		return 0, fmt.Errorf("layout: page %d falls in inter-file padding or past end", page)
	}
	return SpecDisk(a.Stripe, off), nil
}

// ArrayOfPage returns the array whose file contains the page, or nil for
// padding/out-of-range pages.
func (l *Layout) ArrayOfPage(page int64) *sema.Array {
	byteOff := page * l.PageSize
	i := sort.Search(len(l.Extents), func(i int) bool {
		return l.Extents[i].Base > byteOff
	}) - 1
	if i < 0 {
		return nil
	}
	ext := l.Extents[i]
	if byteOff-ext.Base >= ext.Array.Bytes() {
		return nil
	}
	return ext.Array
}

// StripeRange describes the span of element linear indices of one stripe of
// an array that lives on a particular disk.
type StripeRange struct {
	Disk     int
	Stripe   int64 // stripe index within the array's file
	FromElem int64 // first linear element index (inclusive)
	ToElem   int64 // last linear element index (inclusive)
}

// StripesOnDisk enumerates the stripes of array a that live on disk d, in
// file order. This is the quasi-affine structure behind the per-disk loop
// nests the restructurer generates (the "for ss" stripe loops of Fig. 2(c)).
func (l *Layout) StripesOnDisk(a *sema.Array, d int) []StripeRange {
	s := a.Stripe
	rel := d - s.Start
	if rel < 0 || rel >= s.Factor {
		return nil
	}
	elemsPerStripe := s.Unit / a.ElemSize
	total := a.Elems()
	numStripes := (a.Bytes() + s.Unit - 1) / s.Unit
	var out []StripeRange
	for st := int64(rel); st < numStripes; st += int64(s.Factor) {
		from := st * elemsPerStripe
		to := from + elemsPerStripe - 1
		if to >= total {
			to = total - 1
		}
		out = append(out, StripeRange{Disk: d, Stripe: st, FromElem: from, ToElem: to})
	}
	return out
}

// DisksOfArray returns the set of disks array a is striped over, ascending.
func (l *Layout) DisksOfArray(a *sema.Array) []int {
	ds := make([]int, 0, a.Stripe.Factor)
	numStripes := (a.Bytes() + a.Stripe.Unit - 1) / a.Stripe.Unit
	n := int64(a.Stripe.Factor)
	if numStripes < n {
		n = numStripes
	}
	for k := 0; k < int(n); k++ {
		ds = append(ds, a.Stripe.Start+k)
	}
	return ds
}
