package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// calibSink keeps the calibration kernel's results live.
var calibSink []float64

// calibKernel times one run of a fixed CPU kernel that shares no code with
// the program: each of GOMAXPROCS goroutines multiplies two 48×48 matrices
// four times and evaluates 2048 sin·tanh products. It takes about 1 ms.
//
// The machine this benchmark was built on changed speed by up to 1.5× over
// minutes, moving step times and this kernel's time alike, so the bounded
// timing metrics are expressed in units of this kernel's median time in the
// same run ("cal"). A change to the program moves them exactly as it moves
// the raw times, which are printed beside them.
func calibKernel() time.Duration {
	n := runtime.GOMAXPROCS(0)
	if len(calibSink) < n {
		calibSink = make([]float64, n)
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			calibSink[w] = calibWork(w)
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

func calibWork(seed int) float64 {
	const m = 48
	var a, b, c [m * m]float64
	for i := range a {
		a[i] = float64((i*7+seed)%13) / 13
		b[i] = float64((i*5+seed)%11) / 11
	}
	for r := 0; r < 4; r++ {
		for i := 0; i < m; i++ {
			for k := 0; k < m; k++ {
				aik := a[i*m+k]
				for j := 0; j < m; j++ {
					c[i*m+j] += aik * b[k*m+j]
				}
			}
		}
		a, c = c, a
	}
	s := 0.0
	for i := 0; i < 2048; i++ {
		x := float64(i) * 1e-3
		s += math.Sin(x) * math.Tanh(x+a[i%(m*m)]*1e-9)
	}
	return s
}
