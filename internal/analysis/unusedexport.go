package analysis

import (
	"go/ast"
	"go/types"
)

// UnusedExport rejects an exported function or method that no non-test
// file of the module references. Such code is reached only from its own
// tests: it costs reading and upkeep, and nothing the commands produce
// depends on it. Delete it, move a test oracle into a _test.go file, or
// record why it stays with `//greenvet:allow unusedexport -- <reason>`
// on the line above the declaration.
//
// A method is exempt when an interface type the module's code refers to
// declares a method of that name: it may be called through that
// interface, where no reference names it. So are an error type's
// Unwrap, Is and As, which package errors calls through interfaces
// declared inside its own functions. The check is not transitive; a
// function referenced only from other dead code passes.
var UnusedExport = &Analyzer{
	Name: "unusedexport",
	Doc:  "exported functions and methods that no non-test file of the module references",
	Run:  runUnusedExport,
}

// useIndex is what unusedexport needs from the whole module: the
// functions some non-test file references, and the method names the
// interface types it refers to declare.
type useIndex struct {
	funcs        map[*types.Func]bool
	ifaceMethods map[string]bool
}

// uses returns the module's use index, building it on first use. Only
// the module tree is indexed; fixture packages loaded through CheckDir
// are not, so they cannot make a module function look used.
func (m *Module) uses() *useIndex {
	if m.useIdx == nil {
		idx := &useIndex{funcs: map[*types.Func]bool{}, ifaceMethods: map[string]bool{}}
		for _, path := range m.PackagePaths() {
			idx.add(m.pkgs[path].Info)
		}
		m.useIdx = idx
	}
	return m.useIdx
}

// add indexes one package's references.
func (idx *useIndex) add(info *types.Info) {
	if info == nil {
		return
	}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			idx.funcs[fn.Origin()] = true
		}
	}
	for _, tv := range info.Types {
		idx.addIface(tv.Type)
		// An argument passed to an interface parameter converts
		// implicitly; the parameter's type appears in no expression.
		if sig, ok := tv.Type.(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				idx.addIface(sig.Params().At(i).Type())
			}
		}
	}
}

func (idx *useIndex) addIface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			idx.ifaceMethods[it.Method(i).Name()] = true
		}
	}
}

// errorProtocol names the methods package errors looks for on an error.
var errorProtocol = map[string]bool{"Unwrap": true, "Is": true, "As": true}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func runUnusedExport(p *Pass) {
	if p.Info == nil {
		return
	}
	idx := p.Mod.uses()
	// The package's own references count too: a fixture package is not
	// in the module index.
	own := &useIndex{funcs: map[*types.Func]bool{}, ifaceMethods: map[string]bool{}}
	own.add(p.Info)
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || idx.funcs[fn] || own.funcs[fn] {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if idx.ifaceMethods[fn.Name()] || own.ifaceMethods[fn.Name()] ||
					errorProtocol[fn.Name()] && types.Implements(recv.Type(), errorType) {
					continue
				}
			}
			p.Reportf(fd.Name.Pos(),
				"%s is referenced by no non-test file of the module: delete it, move it into a _test.go file, or record why it stays with `%s unusedexport -- <reason>`",
				fn.Name(), AllowPrefix)
		}
	}
}
