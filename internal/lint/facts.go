package lint

import "encoding/json"

// PackageFacts holds one package's serialized facts, keyed by analyzer name.
// The payload format is private to each analyzer; the framework only moves
// the bytes between packages.
type PackageFacts map[string]json.RawMessage

// FactSet is every known package's facts, keyed by normalized import path:
// the in-memory store the driver threads through one run, analyzing
// packages in dependency order so each package's facts are recorded before
// its importers read them.
type FactSet map[string]PackageFacts

// Read returns the named analyzer's facts for pkgPath, or nil when absent.
func (fs FactSet) Read(analyzer, pkgPath string) json.RawMessage {
	return fs[pkgPath][analyzer]
}

// Set records the named analyzer's facts for pkgPath. A nil or empty payload
// deletes the entry, so packages with nothing to export leave no entry.
func (fs FactSet) Set(analyzer, pkgPath string, payload json.RawMessage) {
	if len(payload) == 0 {
		if pf := fs[pkgPath]; pf != nil {
			delete(pf, analyzer)
			if len(pf) == 0 {
				delete(fs, pkgPath)
			}
		}
		return
	}
	pf := fs[pkgPath]
	if pf == nil {
		pf = PackageFacts{}
		fs[pkgPath] = pf
	}
	pf[analyzer] = payload
}
