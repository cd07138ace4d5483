// schedule-gallery renders every pipeline scheme the paper discusses, plus
// Chimera's N>D variants and the generalized four-pipeline overlay — a
// visual tour of Figures 2, 3, 7 and 8.
package main

import (
	"fmt"
	"log"

	"chimera"
)

func show(title string, s *chimera.Schedule, cm chimera.CostModel) {
	fmt.Printf("--- %s ---\n", title)
	art, err := chimera.RenderASCII(s, cm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(art)
	fmt.Println()
}

func main() {
	fmt.Println("All schemes at D=4, N=4 (backward = 2× forward, as in Fig. 2):")
	for _, name := range chimera.Schemes() {
		s, err := chimera.Build(chimera.ScheduleSpec{Scheme: name, D: 4, N: 4})
		if err != nil {
			log.Fatal(err)
		}
		show(name, s, chimera.UnitPractical)
	}

	fmt.Println("Chimera N>D scaling methods at D=4, N=8 (Fig. 7):")
	for _, mode := range []chimera.ConcatMode{chimera.Direct, chimera.ForwardDoubling, chimera.BackwardHalving} {
		s, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", D: 4, N: 8, Concat: mode})
		if err != nil {
			log.Fatal(err)
		}
		show(fmt.Sprintf("chimera %v", mode), s, chimera.UnitPractical)
	}

	fmt.Println("Four 8-stage pipelines, f=2 (Fig. 8, equal-cost model):")
	s, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", D: 8, N: 8, F: 2})
	if err != nil {
		log.Fatal(err)
	}
	show("chimera f=2", s, chimera.UnitEqual)
}
