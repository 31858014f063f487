package main

import "time"

// Calibration. The reference box is a shared 2-vCPU virtual machine
// whose speed drifts by 15–20 % over tens of minutes — every workload,
// the cache-resident simulation included, slows and recovers together
// (bench/README.md has the measurements) — without the hypervisor
// reporting any of it as stolen time. A benchmark that compares runs
// taken an hour apart has to take that drift out, so every measured
// slice is bracketed by two shots of a fixed piece of work, and its
// times are scaled by how fast the box ran that work compared with the
// nominal speed below. What ncload reports is therefore time at the
// reference box's nominal speed; the factor itself is printed beside it
// as "speed", and a reported time divided by it is the wall-clock time.
// The factor comes from a CPU kernel and is applied to times that also
// hold socket wake-ups and waits; the README's ten-run spreads show it
// steadies those workloads too, because on this box everything slows
// together.

const (
	calTableWords = 1 << 11 // 16 KiB: stays in the L1 cache, so a shot does not depend on what ran before it
	calIters      = 400_000
)

var (
	calTable = make([]uint64, calTableWords)
	calSink  float64
)

// calibrationShot runs the fixed work — an integer dependency chain,
// a floating-point chain and read-modify-writes over a small table —
// and returns how long it took.
func calibrationShot() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	f := 1.0
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		at := x & (calTableWords - 1)
		calTable[at] += x
		f = f*1.0000001 + float64(calTable[(at+1)&(calTableWords-1)]&1)
	}
	calSink = f + float64(x)
	return time.Since(start)
}

// nominalShot anchors the unit: how long a shot takes on the reference
// box when it is undisturbed (the fastest of some thousand shots; see
// README), so that there a reported millisecond is a millisecond. On
// another machine reported times are the reference box's, not its own —
// comparable from run to run all the same, which is all a bound needs.
const nominalShot = 1040 * time.Microsecond

// calibrator turns the shots around each measured piece into its speed
// factor: nominal time over measured time, 1 on an undisturbed
// reference box, below 1 when the box runs slow.
type calibrator struct{ last time.Duration }

func newCalibrator() *calibrator {
	calibrationShot() // touch the table once, unmeasured
	return &calibrator{last: bestShot()}
}

// bestShot is the faster of a few back-to-back shots: a single shot is
// short enough for one scheduler hiccup to double it.
func bestShot() time.Duration {
	best := calibrationShot()
	for i := 0; i < 4; i++ {
		best = min(best, calibrationShot())
	}
	return best
}

// speed is called once after each measured piece and returns the factor
// for that piece, from the shots before and after it.
func (c *calibrator) speed() float64 {
	before := c.last
	c.last = bestShot()
	return float64(nominalShot) / (float64(before+c.last) / 2)
}

// slice measures one slice of a workload and stamps it with the speed
// factor of the shots around it.
func (c *calibrator) slice(w workload, d time.Duration) *sliceResult {
	s := w.slice(d)
	s.speed = c.speed()
	return s
}
