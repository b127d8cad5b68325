package lint

import "go/types"

// DeadExport enforces the deletion rule: code nothing on the serving
// path, in a command, an example or the benchmark calls is deleted, not
// maintained. It reports every exported func, method, type, field, const
// and var of a non-main package that no non-test file of the module
// uses. The use index always spans the whole module (see
// Loader.moduleUses), so a narrower maritimelint pattern sees the same
// findings for the packages it names.
//
// A use is any reference from a non-test file. A type alias selected
// from another package (`pkg.Alias`) is recorded as a use of the alias's
// own name, also under gotypesalias=0, which go.mod's go 1.22 implies,
// so re-exports need no special case. A method is also used when its name
// and signature match a method of any interface declared in the module
// or in a package it imports, `error` included, or when its type is a
// type argument whose parameter's constraint names the method.
//
// A finding is cleared by deleting the export, moving it into the
// declaring package's _test.go when only those tests call it, or by
// //lint:ignore deadexport <Test… that calls it> when a claim test, or a
// test in another package using it as an oracle, holds it.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "every exported identifier outside package main has a use in a non-test file of the module",
	Run:  runDeadExport,
}

func runDeadExport(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Types.Name() == "main" {
		return
	}
	idx, err := pkg.loader.moduleUses()
	if err != nil {
		pass.Report(pkg.Files[0].Name.Pos(), "deadexport: loading the module: %v", err)
		return
	}
	scope := pkg.Types.Scope()
	for id, obj := range pkg.Info.Defs {
		if obj == nil || !obj.Exported() || obj.Pkg() != pkg.Types || idx.used[obj] {
			continue
		}
		var kind, name string
		switch o := obj.(type) {
		case *types.Func:
			recv := o.Type().(*types.Signature).Recv()
			switch {
			case recv == nil:
				kind, name = "func", o.Name()
			case types.IsInterface(recv.Type()) || idx.satisfies(o):
				continue
			default:
				kind, name = "method", "("+types.TypeString(recv.Type(), types.RelativeTo(pkg.Types))+")."+o.Name()
			}
		case *types.TypeName:
			if _, param := o.Type().(*types.TypeParam); param || o.Parent() != scope {
				continue
			}
			kind, name = "type", o.Name()
		case *types.Const:
			if o.Parent() != scope {
				continue
			}
			kind, name = "const", o.Name()
		case *types.Var:
			switch {
			case o.IsField() && !o.Anonymous():
				kind, name = "field", o.Name()
			case !o.IsField() && o.Parent() == scope:
				kind, name = "var", o.Name()
			default:
				continue
			}
		default:
			continue
		}
		pass.Report(id.Pos(), "exported %s %s has no use in a non-test file of the module: delete it, move it into a _test.go, or //lint:ignore deadexport <Test… that calls it>",
			kind, name)
	}
}

// useIndex is the module-wide answer to "is this object used": every
// object some non-test file refers to, and the method sets of every
// interface in sight, by method name.
type useIndex struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Signature
	done   map[any]bool // *types.Package and *types.Interface already indexed
}

// moduleUses builds (once per loader) the use index over every package
// of the module, whatever subset of packages the caller analyses.
func (l *Loader) moduleUses() (*useIndex, error) {
	if l.uses != nil {
		return l.uses, nil
	}
	pkgs, err := l.ModulePackages()
	if err != nil {
		return nil, err
	}
	idx := &useIndex{
		used:   make(map[types.Object]bool),
		ifaces: make(map[string][]*types.Signature),
		done:   make(map[any]bool),
	}
	idx.addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range pkgs {
		idx.add(pkg)
	}
	l.uses = idx
	return idx, nil
}

// add indexes one package's uses and interfaces.
func (idx *useIndex) add(pkg *Package) {
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		idx.used[obj] = true
	}
	for _, obj := range pkg.Info.Uses {
		use(obj)
	}
	// A type argument's methods named by its type parameter's constraint
	// are called through the parameter.
	for id, inst := range pkg.Info.Instances {
		var tparams *types.TypeParamList
		switch t := pkg.Info.Uses[id].Type().(type) {
		case *types.Named:
			tparams = t.TypeParams()
		case *types.Signature:
			tparams = t.TypeParams()
		}
		for i := 0; i < tparams.Len() && i < inst.TypeArgs.Len(); i++ {
			c := tparams.At(i).Constraint().Underlying().(*types.Interface)
			for j := 0; j < c.NumMethods(); j++ {
				m := c.Method(j)
				if obj, _, _ := types.LookupFieldOrMethod(inst.TypeArgs.At(i), true, m.Pkg(), m.Name()); obj != nil {
					use(obj)
				}
			}
		}
	}
	for _, tv := range pkg.Info.Types {
		if tv.IsType() {
			idx.addIface(tv.Type)
		}
	}
	idx.addPackage(pkg.Types)
}

// addPackage indexes the interfaces a package declares at package level,
// and those of everything it imports, transitively.
func (idx *useIndex) addPackage(p *types.Package) {
	if idx.done[p] {
		return
	}
	idx.done[p] = true
	scope := p.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			idx.addIface(tn.Type())
		}
	}
	for _, imp := range p.Imports() {
		idx.addPackage(imp)
	}
}

func (idx *useIndex) addIface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || idx.done[it] {
		return
	}
	idx.done[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		idx.ifaces[m.Name()] = append(idx.ifaces[m.Name()], m.Type().(*types.Signature))
	}
}

// satisfies reports whether a method's name and signature match a method
// of some indexed interface: it may be called through that interface.
func (idx *useIndex) satisfies(m *types.Func) bool {
	for _, sig := range idx.ifaces[m.Name()] {
		if types.Identical(sig, m.Type()) {
			return true
		}
	}
	return false
}
