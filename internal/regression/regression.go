// Package regression implements the small least-squares toolkit the
// paper relies on: the linear communication-delay model
// t = w0 + w1·(s/b) (§6.1), the linear fit of the cumulative mobile
// computation curve f, and the convex (exponential) fit of the
// offloading-volume curve g (§3.2).
package regression

import (
	"errors"
	"fmt"
	"math"
)

// ErrDegenerate is returned when a fit has too few points or no
// variance in x.
var ErrDegenerate = errors.New("regression: degenerate input")

// Linear is a fitted line y = W0 + W1·x.
type Linear struct {
	W0, W1 float64
	// R2 is the coefficient of determination of the fit on its
	// training points.
	R2 float64
}

// Eval returns the fitted value at x.
func (l Linear) Eval(x float64) float64 { return l.W0 + l.W1*x }

func (l Linear) String() string {
	return fmt.Sprintf("y = %.6g + %.6g*x (R2=%.4f)", l.W0, l.W1, l.R2)
}

// FitLinear computes the ordinary least squares line through the
// points (xs[i], ys[i]).
func FitLinear(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) {
		return Linear{}, fmt.Errorf("%w: len(x)=%d len(y)=%d", ErrDegenerate, len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Linear{}, fmt.Errorf("%w: need at least 2 points, have %d", ErrDegenerate, len(xs))
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Linear{}, fmt.Errorf("%w: no variance in x", ErrDegenerate)
	}
	w1 := (n*sxy - sx*sy) / den
	w0 := (sy - w1*sx) / n
	fit := Linear{W0: w0, W1: w1}
	fit.R2 = rsquared(ys, func(i int) float64 { return fit.Eval(xs[i]) })
	return fit, nil
}

// Exponential is a fitted curve y = A·exp(B·x). With B < 0 this is the
// decreasing convex shape the paper assumes for the offloading-volume
// function g.
type Exponential struct {
	A, B float64
	R2   float64
}

// Eval returns the fitted value at x.
func (e Exponential) Eval(x float64) float64 { return e.A * math.Exp(e.B*x) }

func (e Exponential) String() string {
	return fmt.Sprintf("y = %.6g*exp(%.6g*x) (R2=%.4f)", e.A, e.B, e.R2)
}

// FitExponential fits y = A·exp(B·x) by least squares on log(y).
// All ys must be strictly positive.
func FitExponential(xs, ys []float64) (Exponential, error) {
	logy := make([]float64, len(ys))
	for i, y := range ys {
		if y <= 0 {
			return Exponential{}, fmt.Errorf("%w: non-positive y=%g at index %d", ErrDegenerate, y, i)
		}
		logy[i] = math.Log(y)
	}
	lin, err := FitLinear(xs, logy)
	if err != nil {
		return Exponential{}, err
	}
	fit := Exponential{A: math.Exp(lin.W0), B: lin.W1}
	fit.R2 = rsquared(ys, func(i int) float64 { return fit.Eval(xs[i]) })
	return fit, nil
}

// rsquared computes 1 - SSres/SStot for observed ys and a predictor
// indexed like ys. A constant observation vector yields R2 = 1 when
// predictions are exact and 0 otherwise.
func rsquared(ys []float64, pred func(i int) float64) float64 {
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssTot, ssRes float64
	for i, y := range ys {
		d := y - mean
		ssTot += d * d
		r := y - pred(i)
		ssRes += r * r
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
