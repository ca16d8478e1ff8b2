package ramiel

import (
	"sync"

	"repro/internal/models"
	"repro/internal/onnx"
)

// Queues is the message-passing runtime behind the generated parallel
// code: the Go counterpart of the paper's bi-directional multiprocessing
// queues. Each (value, destination-lane) pair gets its own buffered
// channel, created on demand, so sends never block and receives block only
// until the producing cluster has sent.
type Queues struct {
	mu        sync.Mutex
	chans     map[queueKey]chan *Tensor
	published Env
	lanes     int
}

// queueKey identifies one (value, destination-lane) channel. A comparable
// struct key keeps the per-message lookup allocation-free, unlike the
// fmt.Sprintf string key it replaced, which showed up in profiles of
// generated-code runs.
type queueKey struct {
	value string
	lane  int
}

// NewQueues creates the runtime for a program with the given lane count.
func NewQueues(lanes int) *Queues {
	return &Queues{
		chans:     map[queueKey]chan *Tensor{},
		published: Env{},
		lanes:     lanes,
	}
}

func (q *Queues) channel(value string, lane int) chan *Tensor {
	key := queueKey{value, lane}
	q.mu.Lock()
	defer q.mu.Unlock()
	ch, ok := q.chans[key]
	if !ok {
		ch = make(chan *Tensor, 1)
		q.chans[key] = ch
	}
	return ch
}

// Send delivers a tensor produced in one cluster to the lane `to`
// (Algorithm 4's queue.put). It never blocks: each cross-cluster value is
// sent at most once per destination.
func (q *Queues) Send(value string, to int, t *Tensor) {
	q.channel(value, to) <- t
}

// Recv blocks until the named value arrives at lane `at` (queue.get).
func (q *Queues) Recv(value string, at int) *Tensor {
	return <-q.channel(value, at)
}

// Publish records a graph output.
func (q *Queues) Publish(name string, t *Tensor) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.published[name] = t
}

// Published returns the graph outputs recorded so far.
func (q *Queues) Published() Env {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(Env, len(q.published))
	for k, v := range q.published {
		out[k] = v
	}
	return out
}

// LoadEnv reads a model file and returns an execution environment holding
// its initializers plus deterministic random feeds for the graph inputs —
// what a generated main() needs to run.
func LoadEnv(modelPath string) (Env, error) {
	g, err := onnx.LoadGraph(modelPath)
	if err != nil {
		return nil, err
	}
	return buildEnv(g), nil
}

// SyntheticEnv rebuilds the named zoo model (same deterministic weights as
// BuildModel with the default config) and returns its environment. It
// panics on unknown names — generated code bakes the name in at generation
// time, so a failure is a programming error.
func SyntheticEnv(modelName string) Env {
	g := models.MustBuild(modelName, models.Config{})
	return buildEnv(g)
}

// CompiledEnv rebuilds the named zoo model under cfg, replays the compile
// pipeline under opts, and returns the *optimized* graph's environment.
// Generated parallel code is emitted from the optimized graph, whose
// optimization passes (constant folding, BatchNorm fusion) materialize
// initializers that do not exist in the base model — SyntheticEnv cannot
// supply those, so generated mains bind their environment through this
// instead, with the model config they were generated at (models with
// baked reshape constants need matching spatial dims). The passes are
// deterministic, so the replay reproduces exactly the value names the
// generated code references. Panics on unknown model names or compile
// failure, which for baked-in generated code is a programming error.
func CompiledEnv(modelName string, cfg ModelConfig, opts Options) Env {
	g := models.MustBuild(modelName, cfg)
	prog, err := CompileWithOptions(g, opts)
	if err != nil {
		panic("ramiel: CompiledEnv: " + err.Error())
	}
	return buildEnv(prog.Graph)
}

func buildEnv(g *Graph) Env {
	env := Env{}
	for name, t := range g.Initializers {
		env[name] = t
	}
	for name, t := range models.RandomInputs(g, 1) {
		env[name] = t
	}
	return env
}
