package experiments

// Renderer is what every experiment returns: a paper-style text table.
type Renderer interface{ Render() string }

// Experiment is one experiment that makalu-experiments' `-exp all`
// runs, under its -exp id.
type Experiment struct {
	ID  string
	Run func(opt Options) (Renderer, error)
}

// Suite lists the experiments `-exp all` runs, in table order.
// sources is the path analysis' BFS/Dijkstra source count (0 = exact).
func Suite(sources int) []Experiment {
	return []Experiment{
		{"paths", func(o Options) (Renderer, error) { return RunPaths(o, sources) }},
		{"spectrum", func(o Options) (Renderer, error) { return RunConnectivity(o) }},
		{"fig1", func(o Options) (Renderer, error) { return RunFigure1(o) }},
		{"table1", func(o Options) (Renderer, error) { return RunTable1(o) }},
		{"duplicates", func(o Options) (Renderer, error) { return RunDuplicates(o, 4, 0.01) }},
		{"fig2", func(o Options) (Renderer, error) { return RunFigure2(o) }},
		{"fig3", func(o Options) (Renderer, error) { return RunFigure3(o) }},
		{"fig4", func(o Options) (Renderer, error) { return RunFigure4(o) }},
		{"abf-vs-dht", func(o Options) (Renderer, error) { return RunABFvsDHT(o, 0.01) }},
		{"table2", func(o Options) (Renderer, error) { return RunTable2(o) }},
		{"resilience", func(o Options) (Renderer, error) { return RunResilience(o) }},
		{"expansion", func(o Options) (Renderer, error) { return RunExpansion(o) }},
		{"low-replication", func(o Options) (Renderer, error) { return RunLowReplication(o) }},
		{"strategies", func(o Options) (Renderer, error) { return RunStrategies(o) }},
		{"convergence", func(o Options) (Renderer, error) { return RunConvergence(o, 10) }},
		{"ratings", func(o Options) (Renderer, error) { return RunRatings(o) }},
	}
}
