package plan

// ArcLabel names an arc for per-node stats: "fact", or the producing
// measure's name, suffixed with the arc kind for base arcs.
func (p *Plan) ArcLabel(a *Arc) string {
	switch a.Kind {
	case ArcFact:
		return "fact"
	case ArcBase:
		return p.Workflow.Measures[a.From].Name + " (base)"
	default:
		return p.Workflow.Measures[a.From].Name
	}
}
