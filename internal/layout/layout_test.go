package layout

import (
	"math/rand"
	"testing"

	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
)

func analyze(t *testing.T, src string) *sema.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sema.Analyze(prog, sema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const twoArraySrc = `
param N = 64
array U1[N][N] stripe(unit=4K, factor=4, start=0)
array U2[N][N] stripe(unit=4K, factor=4, start=0)
nest L { for i = 0 to N-1 { for j = 0 to N-1 { U2[i][j] = U1[i][j]; } } }
`

func TestLayoutBasics(t *testing.T) {
	p := analyze(t, twoArraySrc)
	l, err := New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumDisks() != 4 {
		t.Errorf("NumDisks = %d", l.NumDisks())
	}
	u1 := p.Array("U1")
	u2 := p.Array("U2")
	// 64x64 float64 = 32 KiB per array; stripe unit 4 KiB => 8 stripes,
	// disks 0,1,2,3,0,1,2,3.
	if d, _ := l.ElemDisk(u1, 0); d != 0 {
		t.Errorf("first elem disk = %d", d)
	}
	// element 512 (byte 4096) starts stripe 1 => disk 1
	if d, _ := l.ElemDisk(u1, 512); d != 1 {
		t.Errorf("elem 512 disk = %d, want 1", d)
	}
	// stripe 4 wraps to disk 0
	if d, _ := l.ElemDisk(u1, 2048); d != 0 {
		t.Errorf("elem 2048 disk = %d, want 0", d)
	}
	// U2's file follows U1's, aligned.
	ext2 := l.Extents[1]
	if ext2.Array != u2 || ext2.Base != u1.Bytes() {
		t.Errorf("U2 extent = %+v", ext2)
	}
	if l.TotalBytes() != u1.Bytes()+u2.Bytes() {
		t.Errorf("TotalBytes = %d", l.TotalBytes())
	}
}

// Property: for every element, PageDisk(ElemPage(e)) == ElemDisk(e). This
// is the compiler/simulator consistency invariant: the disk the compiler
// thinks an element lives on must be the disk the trace-driven simulator
// charges the request to.
func TestCompilerSimulatorDiskAgreement(t *testing.T) {
	p := analyze(t, `
param N = 32
array A[N][N] elem 4 stripe(unit=4K, factor=3, start=1)
array B[1024] stripe(unit=8K, factor=5, start=0)
nest L { for i = 0 to N-1 { for j = 0 to N-1 { B[i*N+j] = A[i][j]; } } }
`)
	l, err := New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range p.Arrays {
		for lin := int64(0); lin < a.Elems(); lin++ {
			ed, err := l.ElemDisk(a, lin)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := l.ElemPage(a, lin)
			if err != nil {
				t.Fatal(err)
			}
			pd, err := l.PageDisk(pg)
			if err != nil {
				t.Fatalf("PageDisk(%d): %v", pg, err)
			}
			if ed != pd {
				t.Fatalf("array %s elem %d: ElemDisk=%d PageDisk=%d", a.Name, lin, ed, pd)
			}
			if got := l.ArrayOfPage(pg); got != a {
				t.Fatalf("ArrayOfPage(%d) = %v, want %s", pg, got, a.Name)
			}
		}
	}
}

func TestStripesOnDisk(t *testing.T) {
	p := analyze(t, twoArraySrc)
	l, err := New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	u1 := p.Array("U1")
	// 8 stripes over 4 disks: disk 2 gets stripes 2 and 6.
	srs := l.StripesOnDisk(u1, 2)
	if len(srs) != 2 || srs[0].Stripe != 2 || srs[1].Stripe != 6 {
		t.Fatalf("StripesOnDisk = %+v", srs)
	}
	// 4 KiB / 8 B = 512 elements per stripe.
	if srs[0].FromElem != 1024 || srs[0].ToElem != 1535 {
		t.Errorf("stripe 2 range = %+v", srs[0])
	}
	// Every element of every stripe range must actually map to that disk.
	for d := 0; d < l.NumDisks(); d++ {
		for _, sr := range l.StripesOnDisk(u1, d) {
			for lin := sr.FromElem; lin <= sr.ToElem; lin += 100 {
				got, _ := l.ElemDisk(u1, lin)
				if got != d {
					t.Fatalf("stripe claims disk %d but elem %d maps to %d", d, lin, got)
				}
			}
		}
	}
	if got := l.StripesOnDisk(u1, 9); got != nil {
		t.Errorf("disk outside factor should have no stripes, got %v", got)
	}
}

// Property: stripe ranges for all disks tile the array exactly.
func TestStripesPartitionArray(t *testing.T) {
	p := analyze(t, `
array A[1000] elem 4 stripe(unit=4K, factor=3, start=0)
nest L { for i = 0 to 999 { read A[i]; } }
`)
	l, err := New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Array("A")
	covered := make([]bool, a.Elems())
	for d := 0; d < l.NumDisks(); d++ {
		for _, sr := range l.StripesOnDisk(a, d) {
			for lin := sr.FromElem; lin <= sr.ToElem; lin++ {
				if covered[lin] {
					t.Fatalf("element %d covered twice", lin)
				}
				covered[lin] = true
			}
		}
	}
	for lin, ok := range covered {
		if !ok {
			t.Fatalf("element %d not covered", lin)
		}
	}
}

func TestDisksOfArray(t *testing.T) {
	p := analyze(t, `
array Small[10] stripe(unit=4K, factor=8, start=2)
array Big[100000] stripe(unit=4K, factor=4, start=0)
nest L { for i = 0 to 9 { read Small[i]; } }
`)
	l, err := New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Small is 80 bytes: a single stripe on disk 2 only.
	if ds := l.DisksOfArray(p.Array("Small")); len(ds) != 1 || ds[0] != 2 {
		t.Errorf("Small disks = %v", ds)
	}
	if ds := l.DisksOfArray(p.Array("Big")); len(ds) != 4 || ds[0] != 0 || ds[3] != 3 {
		t.Errorf("Big disks = %v", ds)
	}
}

func TestLayoutValidation(t *testing.T) {
	p := analyze(t, `
array A[100] stripe(unit=2K, factor=2, start=0)
nest L { for i = 0 to 99 { read A[i]; } }
`)
	if _, err := New(p, 4096); err == nil {
		t.Error("stripe unit smaller than page size must fail")
	}
	p2 := analyze(t, `
array A[100] elem 24 stripe(unit=4K, factor=2, start=0)
nest L { for i = 0 to 99 { read A[i]; } }
`)
	if _, err := New(p2, 4096); err == nil {
		t.Error("element size not dividing page size must fail")
	}
}

func TestLayoutErrors(t *testing.T) {
	p := analyze(t, twoArraySrc)
	l, err := New(p, 0) // default page size
	if err != nil {
		t.Fatal(err)
	}
	if l.PageSize != DefaultPageSize {
		t.Errorf("PageSize = %d", l.PageSize)
	}
	u1 := p.Array("U1")
	if _, err := l.ElemDisk(u1, -1); err == nil {
		t.Error("negative elem must fail")
	}
	if _, err := l.ElemDisk(u1, u1.Elems()); err == nil {
		t.Error("past-end elem must fail")
	}
	if _, err := l.PageDisk(-1); err == nil {
		t.Error("negative page must fail")
	}
	if _, err := l.PageDisk(1 << 40); err == nil {
		t.Error("out-of-range page must fail")
	}
	other := &sema.Array{Name: "ghost", Dims: []int64{4}, ElemSize: 8}
	if _, err := l.ElemDisk(other, 0); err == nil {
		t.Error("unknown array must fail")
	}
}

// Property (randomized): ElemByte is strictly increasing in lin and
// page-disk agreement holds at random points for random layouts.
func TestQuickRandomLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	units := []int64{4096, 8192, 16384, 32768}
	for trial := 0; trial < 25; trial++ {
		factor := 1 + rng.Intn(8)
		start := rng.Intn(4)
		unit := units[rng.Intn(len(units))]
		n := 200 + rng.Intn(5000)
		src := `
array A[` + itoa(n) + `] stripe(unit=` + itoa64(unit) + `, factor=` + itoa(factor) + `, start=` + itoa(start) + `)
nest L { for i = 0 to ` + itoa(n-1) + ` { read A[i]; } }
`
		p := analyze(t, src)
		l, err := New(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		a := p.Array("A")
		for k := 0; k < 50; k++ {
			lin := rng.Int63n(a.Elems())
			ed, err := l.ElemDisk(a, lin)
			if err != nil {
				t.Fatal(err)
			}
			pg, _ := l.ElemPage(a, lin)
			pd, err := l.PageDisk(pg)
			if err != nil {
				t.Fatal(err)
			}
			if ed != pd {
				t.Fatalf("trial %d: elem %d disk mismatch %d vs %d", trial, lin, ed, pd)
			}
			if ed < start || ed >= start+factor {
				t.Fatalf("trial %d: disk %d outside [%d,%d)", trial, ed, start, start+factor)
			}
		}
	}
}

func itoa(n int) string { return itoa64(int64(n)) }

func itoa64(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestForeignArrayRejected pins extentOf's validation: an array of another
// program — same name, same Index, same shape — is not in the layout, and
// ElemByte, ElemDisk and ElemPage all reject it with the same error text.
// An array whose Index lies past the extents is rejected the same way.
func TestForeignArrayRejected(t *testing.T) {
	l, err := New(analyze(t, twoArraySrc), 4096)
	if err != nil {
		t.Fatal(err)
	}
	other := analyze(t, twoArraySrc)
	past := *other.Array("U2")
	past.Index = len(l.Extents)
	for _, a := range []*sema.Array{other.Array("U1"), other.Array("U2"), &past} {
		want := "layout: array " + a.Name + " not in layout"
		if _, err := l.ElemByte(a, 0); err == nil || err.Error() != want {
			t.Errorf("ElemByte(%s, index %d) error %v, want %q", a.Name, a.Index, err, want)
		}
		if _, err := l.ElemDisk(a, 0); err == nil || err.Error() != want {
			t.Errorf("ElemDisk(%s, index %d) error %v, want %q", a.Name, a.Index, err, want)
		}
		if _, err := l.ElemPage(a, 0); err == nil || err.Error() != want {
			t.Errorf("ElemPage(%s, index %d) error %v, want %q", a.Name, a.Index, err, want)
		}
	}
}
