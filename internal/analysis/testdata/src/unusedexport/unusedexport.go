// Fixture for the unusedexport analyzer: an exported function nothing
// references is flagged; one the package calls, one kept with an allow
// comment, an unexported one, a method an interface in use declares and
// an error's Unwrap are not.
package unusedexport

import "errors"

func Dead() int { return 1 } // want "Dead is referenced by no non-test file"

func Used() int { return 2 }

//greenvet:allow unusedexport -- fixture: a root benchmark uses it
func Kept() int { return 3 }

func helper() int { return Used() }

type shape interface{ Area() float64 }

type square struct{ side float64 }

func (s square) Area() float64 { return s.side * s.side }

func (s square) Perimeter() float64 { return 4 * s.side } // want "Perimeter is referenced by no non-test file"

type wrapped struct{ err error }

func (w *wrapped) Error() string { return w.err.Error() }

func (w *wrapped) Unwrap() error { return w.err }

func total(shapes []shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum + float64(helper())
}

var _ = total([]shape{square{2}})

var _ error = &wrapped{errors.New("x")}
