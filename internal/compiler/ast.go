package compiler

// The abstract syntax tree for the Menshen module language. The concrete
// grammar (see the package example programs in internal/p4progs):
//
//	module NAME ;
//	header NAME { FIELD : WIDTH ; ... }            // widths 16, 32, 48
//	register NAME [ WORDS ] ;                      // stateful memory
//	parser { extract HDR at OFFSET ; ... }
//	action NAME ( PARAM, ... ) { STMT ... }
//	table NAME {
//	    key = { HDR.FIELD ; ... }
//	    actions = { NAME ; ... }
//	    size = N ;
//	    entries { ( VAL, ... ) -> ACTION ( ARG, ... ) ; ... }
//	}
//	control { apply ( TABLE ) ;
//	          if ( FIELD OP OPERAND ) { apply(T) } [ else { apply(U) } ]
//	          ... }
//
// Action statement forms (each becomes one ALU instruction):
//
//	F = G + H ;        F = G - H ;                  // container add/sub
//	F = G + N ;        F = G - N ;                  // immediate forms
//	F = N ;                                         // set
//	F = REG [ AEXPR ] ;                             // load
//	REG [ AEXPR ] = F ;                             // store
//	F = loadd ( AEXPR ) ;                           // fetch-and-add
//	set_port ( N ) ;  drop ( ) ;  recirculate ( ) ; // platform ops
//
// AEXPR is FIELD, NUMBER, or FIELD + NUMBER. Parameters of an action may
// appear wherever a NUMBER may; entries bind them to constants.

// Module is a parsed module.
type Module struct {
	Name      string
	Headers   []Header
	Registers []Register
	Parser    []Extract
	Actions   []Action
	Tables    []Table
	Control   []ControlStmt
}

// Header is a header type declaration.
type Header struct {
	Name   string
	Fields []Field
	Line   int
}

// Field is one header field.
type Field struct {
	Name  string
	Width int // bits: 16, 32, or 48
	Line  int
}

// Register declares a stateful array of words.
type Register struct {
	Name  string
	Words int
	Line  int
}

// Extract is one parser statement: extract header H at byte offset N.
type Extract struct {
	Header string
	Offset int
	Line   int
}

// FieldRef names hdr.field in source.
type FieldRef struct {
	Header string
	Field  string
	Line   int
}

// String renders the reference.
func (f FieldRef) String() string { return f.Header + "." + f.Field }

// Operand is a field reference, a literal, or an action parameter.
type Operand struct {
	Kind  OperandKind
	Field FieldRef
	Value uint64
	Param string
	Line  int
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OpndField OperandKind = iota
	OpndConst
	OpndParam
)

// BinOp is an arithmetic operator in action statements.
type BinOp uint8

// Arithmetic operators.
const (
	BinNone BinOp = iota
	BinAdd
	BinSub
)

// StmtKind discriminates action statements.
type StmtKind uint8

// Statement kinds.
const (
	StmtAssign      StmtKind = iota // dest = a [op b]
	StmtLoad                        // dest = reg[addr]
	StmtStore                       // reg[addr] = src
	StmtLoadd                       // dest = loadd(addr)
	StmtSetPort                     // set_port(n)
	StmtDrop                        // drop()
	StmtRecirculate                 // recirculate() — rejected by the static checker
)

// AddrExpr is a stateful-memory address: optional field plus constant.
type AddrExpr struct {
	HasField bool
	Field    FieldRef
	Const    Operand // constant or parameter added to the field (or alone)
	Line     int
}

// Stmt is one action statement.
type Stmt struct {
	Kind StmtKind
	Dest FieldRef // assign/load/loadd destination; store data source
	A    Operand  // first operand for assigns; set_port's operand
	Op   BinOp
	B    Operand // second operand for assigns
	Reg  string  // register name for load/store/loadd
	Addr AddrExpr
	Line int
}

// Action is an action declaration.
type Action struct {
	Name   string
	Params []string
	Body   []Stmt
	Line   int
}

// Table is a table declaration.
type Table struct {
	Name    string
	Keys    []FieldRef
	Actions []string
	Size    int
	Entries []Entry
	// Ternary marks the table as ternary-matching (Appendix B): entries
	// may carry per-field masks and the lowest CAM address wins.
	Ternary bool
	Line    int
}

// Entry is one compile-time match-action entry.
type Entry struct {
	KeyVals []uint64
	// KeyMasks holds the per-field ternary masks, parallel to KeyVals;
	// ^uint64(0) means exact.
	KeyMasks []uint64
	Action   string
	Args     []uint64
	Line     int
}

// ControlStmt is one statement in the control block.
type ControlStmt struct {
	// Table applied unconditionally when Cond == nil.
	Table string
	// Cond guards the apply (and ElseTable) when non-nil.
	Cond      *Condition
	ElseTable string // optional else-branch table
	Line      int
}

// CmpOp is a comparison operator in control conditions.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpGt
	CmpLe
	CmpGe
)

// String renders the operator.
func (c CmpOp) String() string {
	return [...]string{"==", "!=", "<", ">", "<=", ">="}[c]
}

// Condition is FIELD OP OPERAND.
type Condition struct {
	A    FieldRef
	Op   CmpOp
	B    Operand
	Line int
}
