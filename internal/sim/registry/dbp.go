package registry

import (
	"fmt"

	"ldsprefetch/internal/baselines/dbp"
	"ldsprefetch/internal/prefetch"
)

// DBPOptions parameterizes the dependence-based prefetcher baseline.
type DBPOptions struct {
	// PPWSize is the potential-producer window size (0 = 128).
	PPWSize int `json:"ppw_size,omitempty"`
	// TableCap caps the correlation table (0 = 256).
	TableCap int `json:"table_cap,omitempty"`
}

func init() {
	RegisterPrefetcher(&Prefetcher{
		Kind:         "dbp",
		Version:      1,
		Throttleable: true,
		NewOptions:   func() any { return new(DBPOptions) },
		Validate: func(opts any) error {
			o := opts.(*DBPOptions)
			if o.PPWSize < 0 {
				return fmt.Errorf("ppw_size must be >= 0, got %d", o.PPWSize)
			}
			if o.TableCap < 0 {
				return fmt.Errorf("table_cap must be >= 0, got %d", o.TableCap)
			}
			return nil
		},
		Build: func(env *BuildEnv, opts any) (Instance, error) {
			o := opts.(*DBPOptions)
			ppw, tcap := o.PPWSize, o.TableCap
			if ppw == 0 {
				ppw = 128
			}
			if tcap == 0 {
				tcap = 256
			}
			db := dbp.New(ppw, tcap, env.MS.Mem(), env.MS)
			return Instance{Prefetcher: db, Source: prefetch.SrcDBP,
				Throttleable: db}, nil
		},
	})
}
