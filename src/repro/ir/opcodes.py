"""Stable integer opcodes for the register-compiled execution engine.

The flat engine (:mod:`repro.interp.engine`) dispatches on small
integers instead of ``isinstance`` chains.  The numbering here is part
of the compiled-program format: it is deliberately explicit (no
``enum.auto()``, no ``itertools.count``) so a renumbering shows up as a
diff, and the flat engine's handler table and inlined hot-path
comparisons can rely on the values never moving.

Layout:

- 0 is unused; numbers are never reassigned.
- 1..19 are the hot opcodes, inlined in the engine's dispatch chain
  (memory, the three dominant arithmetic ops, all comparisons, control
  flow, calls, and the persistence primitives).
- 20..29 are cold opcodes, dispatched through the opcode-indexed
  handler table.

Comparisons get one opcode per predicate and binary operations one
opcode per operator: the predicate/operator dispatch happens once, at
compile time, instead of on every executed instruction.
"""

from __future__ import annotations

# -- hot opcodes (inlined in the engine's dispatch chain) -------------------
OP_LOAD = 1
OP_STORE = 2
OP_GEP = 3
OP_ADD = 4
OP_SUB = 5
OP_ICMP_EQ = 6
OP_ICMP_NE = 7
OP_ICMP_ULT = 8
OP_ICMP_ULE = 9
OP_ICMP_UGT = 10
OP_ICMP_UGE = 11
OP_BR = 12
OP_JMP = 13
OP_CALL = 14
OP_RET = 15
OP_FLUSH = 16
OP_FENCE = 17
OP_ALLOCA = 18
OP_MUL = 19

# -- cold opcodes (opcode-indexed handler table) ----------------------------
OP_UDIV = 20
OP_UREM = 21
OP_AND = 22
OP_OR = 23
OP_XOR = 24
OP_SHL = 25
OP_LSHR = 26
OP_SELECT = 27
OP_CAST = 28
OP_TRAP = 29

#: One past the largest opcode (handler-table size).
NUM_OPCODES = 30

#: BinOp operator name -> opcode.
BINOP_OPCODES = {
    "add": OP_ADD,
    "sub": OP_SUB,
    "mul": OP_MUL,
    "udiv": OP_UDIV,
    "urem": OP_UREM,
    "and": OP_AND,
    "or": OP_OR,
    "xor": OP_XOR,
    "shl": OP_SHL,
    "lshr": OP_LSHR,
}

#: ICmp predicate name -> opcode.
ICMP_OPCODES = {
    "eq": OP_ICMP_EQ,
    "ne": OP_ICMP_NE,
    "ult": OP_ICMP_ULT,
    "ule": OP_ICMP_ULE,
    "ugt": OP_ICMP_UGT,
    "uge": OP_ICMP_UGE,
}

#: Opcode -> human-readable mnemonic (diagnostics, profiling output).
OPCODE_NAMES = {
    OP_LOAD: "load",
    OP_STORE: "store",
    OP_GEP: "gep",
    OP_ADD: "add",
    OP_SUB: "sub",
    OP_ICMP_EQ: "icmp.eq",
    OP_ICMP_NE: "icmp.ne",
    OP_ICMP_ULT: "icmp.ult",
    OP_ICMP_ULE: "icmp.ule",
    OP_ICMP_UGT: "icmp.ugt",
    OP_ICMP_UGE: "icmp.uge",
    OP_BR: "br",
    OP_JMP: "jmp",
    OP_CALL: "call",
    OP_RET: "ret",
    OP_FLUSH: "flush",
    OP_FENCE: "fence",
    OP_ALLOCA: "alloca",
    OP_MUL: "mul",
    OP_UDIV: "udiv",
    OP_UREM: "urem",
    OP_AND: "and",
    OP_OR: "or",
    OP_XOR: "xor",
    OP_SHL: "shl",
    OP_LSHR: "lshr",
    OP_SELECT: "select",
    OP_CAST: "cast",
    OP_TRAP: "trap",
}
