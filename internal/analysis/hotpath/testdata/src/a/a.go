// Package a is the hotpath golden fixture: allocating constructs, the
// module-local call-graph closure, and the closure-argument exemption, in
// both conforming and violating forms.
package a

// drain sums a batch without allocating.
//
//eiffel:hotpath
func drain(buf []int) int {
	total := 0
	for _, v := range buf {
		total += v
	}
	return total
}

// serve hands each element to fn without retaining it.
//
//eiffel:hotpath
func serve(buf []int, fn func(int)) {
	for _, v := range buf {
		fn(v)
	}
}

// pump uses the closure-argument idiom legally: the literal is a direct
// argument to a module-local hotpath callee.
//
//eiffel:hotpath
func pump(buf []int, out *int) {
	serve(buf, func(v int) {
		*out += v
	})
}

type sink struct{ buf []int }

// keep appends to receiver-owned scratch: amortized reuse, not flagged.
//
//eiffel:hotpath
func (s *sink) keep(v int) {
	s.buf = append(s.buf, v)
}

// refill is the amortized slow path, suppressed with a rationale.
//
//eiffel:hotpath
func (s *sink) refill(n int) {
	//eiffel:allow(hotpath) amortized: runs once per capacity doubling
	s.buf = make([]int, 0, n)
}

func slowHelper() {}

//eiffel:hotpath
func badCall() {
	slowHelper() // want `calls slowHelper, which is not annotated`
}

//eiffel:hotpath
func badMake() []int {
	return make([]int, 8) // want `make allocates in hotpath function badMake`
}

//eiffel:hotpath
func badAppend() int {
	var scratch []int
	scratch = append(scratch, 1) // want `append to function-local slice scratch`
	return len(scratch)
}

//eiffel:hotpath
func badClosure() func() {
	return func() {} // want `closure in hotpath function badClosure`
}

//eiffel:hotpath
func badDefer() {
	defer drain(nil) // want `defer in hotpath function badDefer`
}

//eiffel:hotpath
func badBox(v int) any {
	return any(v) // want `conversion of int to interface`
}

//eiffel:hotpath
func badConcat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//eiffel:hotpath
func badSliceLit() []int {
	return []int{1, 2} // want `slice literal allocates`
}

// A method of an instantiated generic type is checked against the generic
// declaration's annotation.
type box[T any] struct{ v T }

//eiffel:hotpath
func (b *box[T]) get() T { return b.v }

func (b *box[T]) slow() T { return b.v }

//eiffel:hotpath
func genericCalls(b *box[int]) int {
	return b.get() + b.slow() // want `calls a.box\[T\].slow, which is not annotated`
}
