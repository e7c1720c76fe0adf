package serve

import (
	"fmt"
	"strings"

	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

// WorkloadFactory builds every tenant from one of the named benchmark
// workloads — the serving analogue of the paper's per-application
// deployments. Each tenant gets its own freshly generated database and
// a fully warmed pipeline: the dataset's trained environment, entity
// references, and rules.
func WorkloadFactory(app string, wcfg workload.Config, opts rock.Options) PipelineFactory {
	return func(tenant string, reg *obs.Registry) (*rock.Pipeline, error) {
		ds, err := datasetFor(app, wcfg)
		if err != nil {
			return nil, err
		}
		o := opts
		o.Obs = reg
		return PipelineFromDataset(ds, o)
	}
}

func datasetFor(app string, wcfg workload.Config) (*workload.Dataset, error) {
	switch strings.ToLower(app) {
	case "ecommerce":
		return workload.Ecommerce(), nil
	case "bank":
		return workload.Bank(wcfg), nil
	case "logistics":
		return workload.Logistics(wcfg), nil
	case "sales":
		return workload.Sales(wcfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: ecommerce, bank, logistics, sales)", app)
}

// PipelineFromDataset assembles a warm pipeline over a workload
// dataset: the dataset's own environment (Dataset.BuildEnv — matchers,
// correlation models, ranker, temporal orders, graph), entity references
// registered, and every rule loaded.
func PipelineFromDataset(ds *workload.Dataset, opts rock.Options) (*rock.Pipeline, error) {
	p := rock.NewPipelineOver(ds.BuildEnv(), opts)
	for ref := range ds.EIDRefs {
		rel, attr, ok := strings.Cut(ref, ".")
		if !ok {
			return nil, fmt.Errorf("dataset %s: malformed entity ref %q", ds.Name, ref)
		}
		p.DeclareEntityRef(rel, attr)
	}
	for _, r := range ds.Rules {
		if _, err := p.AddRule(r.String()); err != nil {
			return nil, fmt.Errorf("dataset %s rule %s: %w", ds.Name, r.ID, err)
		}
	}
	return p, nil
}
