package tensor

import (
	"math/rand"
	"testing"
)

func benchVec(n int) (Vector, Vector) {
	rng := rand.New(rand.NewSource(1))
	return RandomVector(rng, n, 1), RandomVector(rng, n, 1)
}

func BenchmarkDot(b *testing.B) {
	for _, n := range []int{48, 256, 4096} {
		b.Run(itoa(n), func(b *testing.B) {
			x, y := benchVec(n)
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				Dot(x, y)
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{48, 256, 4096} {
		b.Run(itoa(n), func(b *testing.B) {
			x, y := benchVec(n)
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				Axpy(0.5, x, y)
			}
		})
	}
}

func BenchmarkSoftmax(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			src := RandomVector(rng, n, 5)
			v := NewVector(n)
			b.SetBytes(int64(n) * 4)
			for i := 0; i < b.N; i++ {
				copy(v, src)
				Softmax(v)
			}
		})
	}
}

func BenchmarkMatVec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := RandomMatrix(rng, 4096, 48, 1)
	x := RandomVector(rng, 48, 1)
	y := NewVector(4096)
	b.SetBytes(a.SizeBytes())
	for i := 0; i < b.N; i++ {
		MatVec(nil, a, x, y)
	}
}

func BenchmarkVecMat(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := RandomMatrix(rng, 4096, 48, 1)
	x := RandomVector(rng, 4096, 1)
	y := NewVector(48)
	b.SetBytes(a.SizeBytes())
	for i := 0; i < b.N; i++ {
		VecMat(nil, x, a, y)
	}
}

func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			x := RandomMatrix(rng, n, n, 1)
			y := RandomMatrix(rng, n, n, 1)
			c := NewMatrix(n, n)
			b.SetBytes(int64(2 * n * n * n * 4))
			for i := 0; i < b.N; i++ {
				MatMul(nil, x, y, c)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkRowKernels compares the multi-row block kernels with the
// per-row Dot loop and Axpy sweep they replace, on a cache-resident
// 256-row block at the embedding widths the serving path sees.
func BenchmarkRowKernels(b *testing.B) {
	const rows = 256
	for _, cols := range []int{16, 24, 64} {
		rng := rand.New(rand.NewSource(4))
		block := RandomMatrix(rng, rows, cols, 1)
		x, acc := RandomVector(rng, cols, 1), NewVector(cols)
		y := NewVector(rows)
		run := func(name string, fn func()) {
			b.Run(name+"/d="+itoa(cols), func(b *testing.B) {
				b.SetBytes(block.SizeBytes())
				for i := 0; i < b.N; i++ {
					fn()
				}
			})
		}
		run("DotLoop", func() { MatVec(nil, block, x, y) })
		run("DotRows", func() { DotRows(block.Data, x, y) })
		run("AxpySweep", func() {
			for i := 0; i < rows; i++ {
				Axpy(y[i], block.Row(i), acc)
			}
		})
		run("AxpyRows", func() { AxpyRows(y, block.Data, 0, acc) })
	}
}
