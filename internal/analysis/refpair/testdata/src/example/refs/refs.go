// Package refs is a refpair fixture with self-contained stand-ins for
// the repo's ref-counted resources.
package refs

import "errors"

type Dataset struct{}

func (d *Dataset) Release()  {}
func (d *Dataset) Name() int { return 0 }

type Catalog struct{}

func (c *Catalog) Acquire(name string) (*Dataset, error) { return nil, nil }

type SketchFile struct{}

func (s *SketchFile) Close() error { return nil }
func (s *SketchFile) Nodes() int   { return 0 }

func OpenSketchFile(path string) (*SketchFile, error) { return nil, nil }

var errBoom = errors.New("boom")

// leakNever acquires and never releases on any path.
func leakNever(c *Catalog) (int, error) {
	d, err := c.Acquire("x") // want `d acquired via Acquire is never released`
	if err != nil {
		return 0, err
	}
	return d.Name(), nil
}

// leakEarlyReturn releases on the happy path but not on the early one.
func leakEarlyReturn(c *Catalog, bad bool) (int, error) {
	d, err := c.Acquire("x")
	if err != nil {
		return 0, err
	}
	if bad {
		return 0, errBoom // want `returns without releasing d acquired via Acquire`
	}
	n := d.Name()
	d.Release()
	return n, nil
}

// leakDiscard throws the handle away outright.
func leakDiscard(c *Catalog) {
	_, _ = c.Acquire("x") // want `result of Acquire is discarded`
}

// leakOpen opens a sketch file and never closes it.
func leakOpen(path string) (int, error) {
	sf, err := OpenSketchFile(path) // want `sf acquired via OpenSketchFile is never released`
	if err != nil {
		return 0, err
	}
	return sf.Nodes(), nil
}

// deferRelease is the canonical pattern: defer covers every return.
func deferRelease(c *Catalog, bad bool) (int, error) {
	d, err := c.Acquire("x")
	if err != nil {
		return 0, err
	}
	defer d.Release()
	if bad {
		return 0, errBoom
	}
	return d.Name(), nil
}

// deferClosure releases inside a deferred closure.
func deferClosure(path string) (int, error) {
	sf, err := OpenSketchFile(path)
	if err != nil {
		return 0, err
	}
	defer func() { sf.Close() }()
	return sf.Nodes(), nil
}

// inlineRelease releases before the only return.
func inlineRelease(c *Catalog) int {
	d, _ := c.Acquire("x")
	n := d.Name()
	d.Release()
	return n
}

// transferReturn hands the caller the handle; the caller releases.
func transferReturn(c *Catalog) (*Dataset, error) {
	return c.Acquire("x")
}

// transferOut stores the handle beyond the function.
type holder struct{ d *Dataset }

func transferOut(c *Catalog, h *holder) error {
	d, err := c.Acquire("x")
	if err != nil {
		return err
	}
	h.d = d
	return nil
}

// transferArg passes the handle to another owner.
func sink(d *Dataset) {}

func transferArg(c *Catalog) error {
	d, err := c.Acquire("x")
	if err != nil {
		return err
	}
	sink(d)
	return nil
}
