package circuit

// Depth returns the circuit depth under as-soon-as-possible scheduling: the
// number of time steps needed when gates acting on disjoint qubits run in
// parallel. Preparations, measurements and single-qubit gates occupy one
// step on their wire; CNOTs occupy one step on both wires.
func (c *Circuit) Depth() int {
	busyUntil := make([]int, c.N)
	depth := 0
	for _, g := range c.Gates {
		var t int
		switch g.Kind {
		case CNOT:
			t = max(busyUntil[g.Q], busyUntil[g.Q2]) + 1
			busyUntil[g.Q] = t
			busyUntil[g.Q2] = t
		default:
			t = busyUntil[g.Q] + 1
			busyUntil[g.Q] = t
		}
		if t > depth {
			depth = t
		}
	}
	return depth
}
