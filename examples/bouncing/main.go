// Bouncing: dump the full collision history of the event-driven physics
// simulator for one round, as CSV on stdout.  Useful for visualising the
// "beads on a ring" dynamics that underlie the whole paper and for checking
// the rotation-index lemma by eye: after one round the set of occupied
// positions is exactly the starting set, shifted by (nC − nA) mod n agents.
//
// It is a standalone program on the physics simulator, not a task: ringsim,
// ringfarm and ringd run only the paper's two tasks.
package main

import (
	"fmt"
	"log"

	"ringsym/internal/physics"
	"ringsym/internal/ring"
)

func main() {
	log.SetFlags(0)

	circ := 360.0
	positions := []float64{0, 40, 95, 140, 200, 260, 300, 330}
	dirs := []ring.Direction{
		ring.Clockwise, ring.Anticlockwise, ring.Clockwise, ring.Clockwise,
		ring.Anticlockwise, ring.Idle, ring.Clockwise, ring.Anticlockwise,
	}
	res, err := physics.SimulateRound(circ, positions, dirs)
	if err != nil {
		log.Fatal(err)
	}

	nC, nA := 0, 0
	for _, d := range dirs {
		switch d {
		case ring.Clockwise:
			nC++
		case ring.Anticlockwise:
			nA++
		}
	}
	fmt.Printf("# one round on a circle of circumference %.0f with %d agents (nC=%d, nA=%d)\n",
		circ, len(positions), nC, nA)
	fmt.Printf("# rotation index (Lemma 1): (nC-nA) mod n = %d\n", ((nC-nA)%len(dirs)+len(dirs))%len(dirs))
	fmt.Println("event,time,position,agentA,agentB")
	for i, e := range res.Events {
		fmt.Printf("%d,%.2f,%.2f,%d,%d\n", i, e.Time, e.Pos, e.A, e.B)
	}
	fmt.Println("# final positions per agent:")
	for i, p := range res.Final {
		first := "never collided"
		if res.Collided(i) {
			first = fmt.Sprintf("first collision after %.2f", res.FirstColl[i])
		}
		fmt.Printf("# agent %d: start %.2f -> end %.2f (%s, %d collisions)\n",
			i, positions[i], p, first, res.Collisions[i])
	}
}
