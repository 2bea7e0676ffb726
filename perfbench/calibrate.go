package main

import "time"

// Host calibration of the sim workloads. On a shared machine the host's
// speed drifts: on the host this benchmark was built on, the same
// Core.Run work took up to twice as long from one minute to the next,
// because other tenants contended for the cores and the last-level cache.
// A fixed reference kernel, timed right before and right after each
// measured Run, tracks that drift, and the sim workloads' host-time
// metrics divide it out:
//
//	calibrated time = measured time × refNominal / mean reference time
//
// The kernel is the benchmark's own frozen code, so no change to the
// repository moves it. It is a small register-machine interpreter over
// 2 MiB of paged memory, because interpreters like the simulator and the
// emulator suffer the same contention; a plain arithmetic loop barely
// notices it. The record keeps the raw figures beside the calibrated ones.
//
// Set-up times are calibrated the same way, by the kernel run twice before
// and twice after each set-up round. The campaign's cycles are not
// calibrated. Its specs are small enough to stay in cache, so it barely
// feels the drift; the kernel, run between its cycles, measured mostly the
// process's own background work, and calibrating widened the campaign's
// spread from 4% to 31% over five seeds.

// refNominal is a fixed scale: about the kernel's time, called back to
// back, on a quiet 2-vCPU linux/amd64 host with Go 1.24.
const refNominal = 3 * time.Millisecond

// refSteps is the number of instructions one reference call interprets.
const refSteps = 400_000

type refInst struct {
	op, rd, rs, rt uint8
	imm            uint64
}

// refProg hashes a counter into an address, loads, mixes, branches on the
// data and stores back, in a loop.
var refProg = []refInst{
	{0, 1, 1, 0, 1}, // r1 += 1
	{1, 2, 1, 0, 0}, // r2 = hash(r1)
	{2, 3, 2, 0, 0}, // r3 = mem[r2]
	{3, 4, 3, 2, 0}, // r4 = r3 ^ r2
	{4, 0, 4, 0, 3}, // if r4 odd, skip 3
	{5, 5, 5, 4, 0}, // r5 += r4
	{6, 0, 2, 5, 0}, // mem[r2] = r5
	{0, 6, 6, 0, 7}, // r6 += 7
	{7, 0, 0, 0, 0}, // jump to 0
}

// refPages is the kernel's memory: 512 pages of 4 KiB, kept across calls.
var refPages = map[uint64]*[512]uint64{}

// reference runs the kernel once and returns how long it took.
func reference() time.Duration {
	t0 := time.Now()
	var r [8]uint64
	pc := 0
	page := func(a uint64) *[512]uint64 {
		pg := refPages[a>>9]
		if pg == nil {
			pg = new([512]uint64)
			refPages[a>>9] = pg
		}
		return pg
	}
	for i := 0; i < refSteps; i++ {
		in := refProg[pc]
		pc++
		switch in.op {
		case 0:
			r[in.rd] = r[in.rs] + in.imm
		case 1:
			r[in.rd] = (r[in.rs] * 0x9E3779B97F4A7C15 >> 40) & 0x3ffff
		case 2:
			r[in.rd] = page(r[in.rs])[r[in.rs]&511]
		case 3:
			r[in.rd] = r[in.rs] ^ r[in.rt]
		case 4:
			if r[in.rs]&1 != 0 {
				pc += int(in.imm)
			}
		case 5:
			r[in.rd] += r[in.rt]
		case 6:
			page(r[in.rs])[r[in.rs]&511] = r[in.rt]
		case 7:
			pc = 0
		}
		if pc >= len(refProg) {
			pc = 0
		}
	}
	refSink += r[5]
	return time.Since(t0)
}

// refSink keeps the kernel's result live.
var refSink uint64

// calib accumulates the reference time measured alongside one stretch of
// measured work.
type calib struct {
	ref   time.Duration
	calls int
}

// sample times the reference kernel n times.
func (c *calib) sample(n int) {
	for i := 0; i < n; i++ {
		c.ref += reference()
		c.calls++
	}
}

// seconds returns a measured time, calibrated, in seconds.
func (c *calib) seconds(measured time.Duration) float64 {
	if c.calls == 0 {
		return measured.Seconds()
	}
	return measured.Seconds() * float64(refNominal) * float64(c.calls) / float64(c.ref)
}

// refMs is the mean reference time per call, in milliseconds.
func (c *calib) refMs() float64 {
	return float64(c.ref) / float64(max(c.calls, 1)) / float64(time.Millisecond)
}
