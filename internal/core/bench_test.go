package core

import (
	"fmt"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/sim"
)

// benchPopulate fills an API server with n placed sharePods over 4-GPU
// nodes, mirroring the Fig 11 harness.
func benchPopulate(n int) *apiserver.Server {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	nodes := n/8 + 1
	for i := 0; i < nodes; i++ {
		node := &api.Node{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("node-%d", i)},
			Status: api.NodeStatus{
				Capacity:    api.ResourceList{api.ResourceGPU: 4},
				Allocatable: api.ResourceList{api.ResourceGPU: 4},
				Ready:       true,
			},
		}
		if _, err := apiserver.Nodes(srv).Create(node); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		sp := &SharePod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("sp-%05d", i)},
			Spec: SharePodSpec{
				GPURequest: 0.2, GPULimit: 0.3, GPUMem: 0.2,
				GPUID:    fmt.Sprintf("vgpu-%04d", i%(nodes*4)),
				NodeName: fmt.Sprintf("node-%d", i%nodes),
				Pod:      api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
			},
			Status: SharePodStatus{Phase: SharePodRunning},
		}
		if _, err := SharePods(srv).Create(sp); err != nil {
			panic(err)
		}
	}
	return srv
}

// BenchmarkBuildPool measures pool derivation from API state (the other
// half of a scheduling cycle).
func BenchmarkBuildPool(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("sharepods=%d", n), func(b *testing.B) {
			srv := benchPopulate(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BuildPool(srv, func() string { return "x" })
			}
		})
	}
}
