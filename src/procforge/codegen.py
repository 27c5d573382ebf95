"""Deterministic Solidity source emission.

Three generators: ERC-20 style token registries, ERC-721 style record
registries (single or distributed), and the process contracts (interface
declarations, ProcessFactory, ProcessMonitor) realizing the marking
automaton. Output is plain text, LF line endings, 4-space indentation,
no timestamps.
"""

from __future__ import annotations

import re
from typing import List, Mapping, NamedTuple, Optional, Tuple

from .ir import (
    EQ_OPS,
    BinOp,
    Expr,
    Lit,
    PROCESS_ADDRESS,
    ProcessModel,
    SmartContractInterfaceDecl,
    UnaryOp,
    Var,
    ascii_words,
    function_name,
)
from .marking import MarkingAutomaton
from .registry import AttributeDecl, FungibleRegistrySpec, NonFungibleRegistrySpec

PRAGMA = "^0.5.8"


class SourceUnit(NamedTuple):
    file_name: str
    pragma_version: str
    contracts: Tuple[str, ...]
    rendered_text: str


def contract_name(display_name: str) -> str:
    """'Lorikeet Coin' -> 'LorikeetCoin' (inner capitals preserved); words
    are runs of ASCII letters and digits."""
    words = ascii_words(display_name)
    name = "".join(w[0].upper() + w[1:] for w in words)
    if not name:
        return "Contract"
    if name[0].isdigit():
        name = "C" + name
    return name


def _unit(file_name: str, texts: List[str]) -> SourceUnit:
    body = f"pragma solidity {PRAGMA};\n\n" + "\n".join(texts)
    # each declaration starts a line below the pragma; an emitted string
    # literal holds no newline, so no other text does
    return SourceUnit(file_name=file_name, pragma_version=PRAGMA,
                      contracts=tuple(re.findall(r"\ncontract (\w+)", body)),
                      rendered_text=body)


def _sol_type(type_name: str, location: str) -> str:
    if type_name == "string":
        return f"string {location}"
    return type_name


# backslash, quote and the ASCII control characters, so that no text from a
# model or a spec can end a string literal or the line it is on
_STRING_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', **{
    chr(c): f"\\x{c:02x}" for c in (*range(0x20), 0x7f)}})


def _sol_literal(value, type_name: str) -> str:
    if type_name == "bool" or isinstance(value, bool):
        return "true" if value else "false"
    if type_name == "string":
        return '"' + str(value).translate(_STRING_ESCAPES) + '"'
    return str(value)


# ---------------------------------------------------------------------------
# Fungible registry (ERC-20)


def gen_fungible(spec: FungibleRegistrySpec) -> SourceUnit:
    name = contract_name(spec.name)
    b: List[str] = []
    b.append(f"contract {name} {{")
    b.append(f"    string public name = {_sol_literal(spec.name, 'string')};")
    b.append(f"    string public symbol = {_sol_literal(spec.symbol, 'string')};")
    b.append(f"    uint8 public decimals = {spec.decimals};")
    b.append("    uint256 public totalSupply;")
    b.append("")
    b.append("    mapping(address => uint256) private balances;")
    b.append("    mapping(address => mapping(address => uint256)) private allowances;")
    if spec.is_mintable:
        b.append("    mapping(address => bool) public isMinter;")
    if spec.is_burnable:
        b.append("    mapping(address => bool) public isBurner;")
    b.append("")
    b.append("    event Transfer(address indexed from, address indexed to, uint256 value);")
    b.append("    event Approval(address indexed owner, address indexed spender, uint256 value);")
    b.append("")
    b.append("    constructor() public {")
    for addr, amount in spec.initially_distributed_accounts:
        b.append(f"        balances[{addr}] = {amount};")
        b.append(f"        emit Transfer(address(0), {addr}, {amount});")
    b.append(f"        totalSupply = {spec.total_supply};")
    for addr in spec.minter_addresses:
        b.append(f"        isMinter[{addr}] = true;")
    for addr in spec.burner_addresses:
        b.append(f"        isBurner[{addr}] = true;")
    b.append("    }")
    b.append("")
    b.append("    function balanceOf(address account) public view returns (uint256) {")
    b.append("        return balances[account];")
    b.append("    }")
    b.append("")
    b.append("    function allowance(address owner, address spender) public view returns (uint256) {")
    b.append("        return allowances[owner][spender];")
    b.append("    }")
    b.append("")
    b.append("    function transfer(address to, uint256 value) public returns (bool) {")
    b.append('        require(balances[msg.sender] >= value, "insufficient balance");')
    b.append("        balances[msg.sender] -= value;")
    b.append("        balances[to] += value;")
    b.append("        emit Transfer(msg.sender, to, value);")
    b.append("        return true;")
    b.append("    }")
    b.append("")
    b.append("    function approve(address spender, uint256 value) public returns (bool) {")
    b.append("        allowances[msg.sender][spender] = value;")
    b.append("        emit Approval(msg.sender, spender, value);")
    b.append("        return true;")
    b.append("    }")
    b.append("")
    b.append("    function transferFrom(address from, address to, uint256 value) public returns (bool) {")
    b.append('        require(balances[from] >= value, "insufficient balance");')
    b.append('        require(allowances[from][msg.sender] >= value, "insufficient allowance");')
    b.append("        allowances[from][msg.sender] -= value;")
    b.append("        balances[from] -= value;")
    b.append("        balances[to] += value;")
    b.append("        emit Transfer(from, to, value);")
    b.append("        return true;")
    b.append("    }")
    if spec.is_mintable:
        b.append("")
        b.append("    function mint(address to, uint256 value) public returns (bool) {")
        b.append('        require(isMinter[msg.sender], "not a minter");')
        b.append("        balances[to] += value;")
        b.append("        totalSupply += value;")
        b.append("        emit Transfer(address(0), to, value);")
        b.append("        return true;")
        b.append("    }")
    if spec.is_burnable:
        b.append("")
        b.append("    function burn(address from, uint256 value) public returns (bool) {")
        b.append('        require(isBurner[msg.sender], "not a burner");')
        b.append('        require(balances[from] >= value, "insufficient balance");')
        b.append("        balances[from] -= value;")
        b.append("        totalSupply -= value;")
        b.append("        emit Transfer(from, address(0), value);")
        b.append("        return true;")
        b.append("    }")
    b.append("}")
    return _unit(name + ".sol", ["\n".join(b) + "\n"])


# ---------------------------------------------------------------------------
# Non-fungible registry (ERC-721 style, address-typed record ids)


def _changed_event(attr: AttributeDecl) -> str:
    return attr.name[0].upper() + attr.name[1:] + "Changed"


def gen_nonfungible(spec: NonFungibleRegistrySpec) -> SourceUnit:
    name = contract_name(spec.name) + "Registry"
    texts: List[str] = []
    record_contract = None
    if spec.registry_type == "distributed":
        record_contract = contract_name(spec.name) + "Record"
        texts.append(_gen_record_contract(spec, record_contract))
    texts.append(_gen_nft_registry(spec, name, record_contract))
    return _unit(name + ".sol", texts)


def _gen_record_contract(spec: NonFungibleRegistrySpec, name: str) -> str:
    b = [f"contract {name} {{"]
    b.append("    address public registry;")
    b.append("    address public owner;")
    for a in spec.attributes:
        b.append(f"    {a.type} public {a.name};")
    b.append("")
    b.append("    modifier onlyRegistry() {")
    b.append('        require(msg.sender == registry, "only the main registry");')
    b.append("        _;")
    b.append("    }")
    b.append("")
    ctor_params = ["address _owner"] + [
        f"{_sol_type(a.type, 'memory')} _{a.name}" for a in spec.attributes]
    b.append(f"    constructor({', '.join(ctor_params)}) public {{")
    b.append("        registry = msg.sender;")
    b.append("        owner = _owner;")
    for a in spec.attributes:
        b.append(f"        {a.name} = _{a.name};")
    b.append("    }")
    b.append("")
    b.append("    function setOwner(address new_owner) public onlyRegistry {")
    b.append("        owner = new_owner;")
    b.append("    }")
    for a in spec.attributes:
        if a.updatable:
            b.append("")
            b.append(f"    function set_{a.name}({_sol_type(a.type, 'memory')} value) "
                     "public onlyRegistry {")
            b.append(f"        {a.name} = value;")
            b.append("    }")
    b.append("}")
    return "\n".join(b) + "\n"


def _gen_nft_registry(spec: NonFungibleRegistrySpec, name: str,
                      record_contract: Optional[str]) -> str:
    attr_args = ", ".join(a.name for a in spec.attributes)
    # The storage layout: a Record struct per record, or, distributed, one
    # record_contract per record. read and write format an attribute name.
    if record_contract is None:
        storage = ["    struct Record {", "        bool exists;", "        address owner;",
                   *(f"        {a.type} {a.name};" for a in spec.attributes), "    }",
                   "    mapping(address => Record) private records;"]
        create = [f"        records[record_id] = Record(true, msg.sender, {attr_args});"]
        lookup: List[str] = []
        exists, owner_of = "records[record_id].exists", "records[record_id].owner"
        read, write = "records[record_id].{}", "records[record_id].{} = value;"
        set_owner = "records[record_id].owner = to;"
    else:
        storage = [f"    mapping(address => {record_contract}) private records;",
                   "    mapping(address => bool) private recordExists;",
                   "    address[] public recordContracts;"]
        create = [f"        records[record_id] = new {record_contract}(msg.sender, {attr_args});",
                  "        recordExists[record_id] = true;",
                  "        recordContracts.push(address(records[record_id]));"]
        exists, owner_of = "recordExists[record_id]", "records[record_id].owner()"
        lookup = ["    function recordContractOf(address record_id) public view returns (address) {",
                  f'        require({exists}, "unknown record");',
                  "        return address(records[record_id]);",
                  "    }",
                  ""]
        read, write = "records[record_id].{}()", "records[record_id].set_{}(value);"
        set_owner = "records[record_id].setOwner(to);"
    # the addresses the registry is built with, in constructor order
    bound_to_process = (spec.is_record_creation_restricted_to_bpmn
                        or spec.is_ownership_transfer_enabled_to_bpmn)
    addresses = [a for a, on in (("processAddress", bound_to_process),
                                 ("accessController",
                                  spec.is_access_control_by_smart_contract_enabled)) if on]

    b = [f"contract {name} {{"]
    b.append("    address public deployer;")
    for a in addresses:
        b.append(f"    address public {a};")
    b.append("")
    b.extend(storage)
    b.append("    mapping(address => uint256) private ownedCount;")
    b.append("    mapping(address => address) private recordApproval;")
    b.append("    mapping(address => mapping(address => bool)) private operatorApproval;")
    b.append("    uint256 public recordCount;")
    b.append("")
    b.append("    event Transfer(address indexed from, address indexed to, address indexed recordId);")
    b.append("    event Approval(address indexed owner, address indexed approved, address indexed recordId);")
    b.append("    event ApprovalForAll(address indexed owner, address indexed operator, bool approved);")
    for a in spec.attributes:
        if a.history_tracked:
            b.append(f"    event {_changed_event(a)}(address indexed recordId, {a.type} value);")
    b.append("")
    b.append(f"    constructor({', '.join('address _' + a for a in addresses)}) public {{")
    b.append("        deployer = msg.sender;")
    for a in addresses:
        b.append(f"        {a} = _{a};")
    b.append("    }")
    b.append("")
    if bound_to_process:
        b.append("    modifier onlyProcess() {")
        b.append('        require(msg.sender == processAddress, "restricted to the bound process");')
        b.append("        _;")
        b.append("    }")
        b.append("")
    if spec.is_registry_function_access_control_enabled:
        b.append("    modifier onlyAuthorized() {")
        guard = " || ".join(f"msg.sender == {a}" for a in ["deployer", *reversed(addresses)])
        b.append(f'        require({guard}, "caller not authorized");')
        b.append("        _;")
        b.append("    }")
        b.append("")

    b.append("    function next_record_id() public view returns (address) {")
    b.append("        return address(uint160(recordCount + 1));")
    b.append("    }")
    b.append("")

    # the modifier of record_create and of every record_update_*
    write_mods = (" onlyProcess" if spec.is_record_creation_restricted_to_bpmn
                  else " onlyAuthorized" if spec.is_registry_function_access_control_enabled
                  else "")
    b.append(f"    function record_create(address record_id, "
             f"{_params_text(spec.attributes, 'memory')}) public{write_mods} {{")
    b.append(f'        require(!{exists}, "record already exists");')
    b.extend(create)
    b.append("        ownedCount[msg.sender] += 1;")
    b.append("        recordCount += 1;")
    b.append("        emit Transfer(address(0), msg.sender, record_id);")
    for a in spec.attributes:
        if a.history_tracked:
            b.append(f"        emit {_changed_event(a)}(record_id, {a.name});")
    b.append("    }")
    b.append("")
    b.extend(lookup)
    b.append("    function record_get_owner(address record_id) public view returns (address record_owner) {")
    b.append(f'        require({exists}, "unknown record");')
    b.append(f"        return {owner_of};")
    b.append("    }")
    b.append("")
    b.append(f"    function record_get_attrs(address record_id) public view "
             f"returns ({_params_text(spec.attributes, 'memory')}) {{")
    b.append(f'        require({exists}, "unknown record");')
    b.append(f"        return ({', '.join(read.format(a.name) for a in spec.attributes)});")
    b.append("    }")
    for a in spec.attributes:
        if not a.updatable:
            continue
        b.append("")
        b.append(f"    function record_update_{a.name}(address record_id, "
                 f"{_sol_type(a.type, 'memory')} value) public{write_mods} {{")
        b.append(f'        require({exists}, "unknown record");')
        if spec.is_registry_record_access_control_enabled:
            b.append(f'        require(msg.sender == {owner_of} || msg.sender == deployer, '
                     '"not the record owner");')
        b.append("        " + write.format(a.name))
        if a.history_tracked:
            b.append(f"        emit {_changed_event(a)}(record_id, value);")
        b.append("    }")

    b.append("")
    b.append("    function _transfer(address from, address to, address record_id) internal {")
    b.append("        " + set_owner)
    b.append("        ownedCount[from] -= 1;")
    b.append("        ownedCount[to] += 1;")
    b.append("        recordApproval[record_id] = address(0);")
    b.append("        emit Transfer(from, to, record_id);")
    b.append("    }")
    if spec.is_ownership_transfer_enabled:
        transfer_guard = f"msg.sender == {owner_of}"
        if spec.is_ownership_transfer_enabled_to_bpmn:
            transfer_guard += " || msg.sender == processAddress"
        b.append("")
        b.append("    function record_ownership_transfer(address record_id, address new_owner) public {")
        b.append(f'        require({exists}, "unknown record");')
        b.append(f'        require({transfer_guard}, "not authorized to transfer");')
        b.append(f"        _transfer({owner_of}, new_owner, record_id);")
        b.append("    }")
    b.append("")
    b.append("    function balanceOf(address owner) public view returns (uint256) {")
    b.append("        return ownedCount[owner];")
    b.append("    }")
    b.append("")
    b.append("    function ownerOf(address record_id) public view returns (address) {")
    b.append(f'        require({exists}, "unknown record");')
    b.append(f"        return {owner_of};")
    b.append("    }")
    b.append("")
    b.append("    function transferFrom(address from, address to, address record_id) public {")
    if spec.is_ownership_transfer_enabled:
        b.append(f'        require({exists}, "unknown record");')
        b.append(f'        require(from == {owner_of}, "from is not the owner");')
        b.append("        require(msg.sender == from || recordApproval[record_id] == msg.sender")
        b.append("            || operatorApproval[from][msg.sender], \"not authorized\");")
        b.append("        _transfer(from, to, record_id);")
    else:
        b.append('        revert("ownership transfer is disabled");')
    b.append("    }")
    b.append("")
    b.append("    function approve(address approved, address record_id) public {")
    b.append(f'        require({exists}, "unknown record");')
    b.append(f'        require(msg.sender == {owner_of}, "not the owner");')
    b.append("        recordApproval[record_id] = approved;")
    b.append(f"        emit Approval(msg.sender, approved, record_id);")
    b.append("    }")
    b.append("")
    b.append("    function getApproved(address record_id) public view returns (address) {")
    b.append("        return recordApproval[record_id];")
    b.append("    }")
    b.append("")
    b.append("    function setApprovalForAll(address operator, bool approved) public {")
    b.append("        operatorApproval[msg.sender][operator] = approved;")
    b.append("        emit ApprovalForAll(msg.sender, operator, approved);")
    b.append("    }")
    b.append("")
    b.append("    function isApprovedForAll(address owner, address operator) public view returns (bool) {")
    b.append("        return operatorApproval[owner][operator];")
    b.append("    }")
    b.append("}")
    return "\n".join(b) + "\n"


# ---------------------------------------------------------------------------
# Process contracts


def _hex(mask: int) -> str:
    return f"{mask:#x}"


def _is_string(e: Expr, types: Mapping[str, str]) -> bool:
    # no operator yields a string, so only a literal or a variable is one
    return (e.type == "string" if isinstance(e, Lit)
            else isinstance(e, Var) and types.get(e.name) == "string")


def render_expr(e: Expr, types: Mapping[str, str]) -> str:
    """The Solidity text of e, under the model's declared types. Solidity
    0.5 has no == on strings, so a string (in)equality compares the
    keccak256 hashes of the two operands."""
    if isinstance(e, Lit):
        return _sol_literal(e.value, e.type)
    if isinstance(e, Var):
        if e.name == PROCESS_ADDRESS:
            return "address(this)"
        return "_" + e.name
    if isinstance(e, UnaryOp):
        # -(-d) written as --_d would be Solidity's pre-decrement
        operand = render_expr(e.operand, types)
        return f"{e.op}({operand})" if isinstance(e.operand, UnaryOp) else e.op + operand
    if isinstance(e, BinOp):
        left, right = render_expr(e.left, types), render_expr(e.right, types)
        # validate_model gives both operands of == one type
        if e.op in EQ_OPS and _is_string(e.left, types):
            left = f"keccak256(abi.encodePacked({left}))"
            right = f"keccak256(abi.encodePacked({right}))"
        return f"({left} {e.op} {right})"
    raise ValueError(f"cannot render {e!r}")


def _params_text(params, location: str) -> str:
    return ", ".join(f"{_sol_type(p.type, location)} {p.name}" for p in params)


def _interface_contract(itf: SmartContractInterfaceDecl) -> str:
    b = [f"contract {itf.name} {{"]
    for fn in itf.functions:
        ins = _params_text(fn.inputs, "calldata")
        outs = _params_text(fn.outputs, "memory")
        ret = f" returns ({outs})" if fn.outputs else ""
        b.append(f"    function {fn.name}({ins}) external{ret};")
    b.append("}")
    return "\n".join(b) + "\n"


def _invocation_lines(model: ProcessModel, task_id: str,
                      types: Mapping[str, str]) -> List[str]:
    lines: List[str] = []
    for itf, fn_name, sources, targets in model.calls_of(task_id):
        instance = "instanceOf" + itf.name
        lines.append(f"{itf.name} {instance} = {itf.name}(addressOf{itf.name});")
        call = f"{instance}.{fn_name}({', '.join(render_expr(s, types) for s in sources)})"
        slots = ["" if t is None else "_" + t for t in targets]
        if not any(slots):
            lines.append(f"{call};")
        elif len(slots) == 1:
            lines.append(f"{slots[0]} = {call};")
        else:
            lines.append(f"({', '.join(slots)}) = {call};")
    return lines


def _storage_vars(model: ProcessModel):
    """(name, type, initial value or None) of the declared process
    variables and of the task inputs not shadowing them."""
    initial = {v.name: v.initial for v in model.variables}
    return [(name, t, initial.get(name)) for name, t in model.declared_types().items()]


def gen_process(model: ProcessModel, automaton: MarkingAutomaton) -> SourceUnit:
    """Emit ProcessFactory.sol: interface contracts, the factory, and the
    ProcessMonitor implementing the marking automaton."""
    types = model.declared_types()
    unbound = [itf for itf in model.interfaces if itf.contract_address is None]
    ctor_params = [f"address _addressOf{itf.name}" for itf in unbound]
    ctor_args = [f"_addressOf{itf.name}" for itf in unbound]

    texts: List[str] = []
    if model.interfaces:
        iface_text = "// -------- EXTERNAL SMART CONTRACT INTERFACES\n"
        iface_text += "\n".join(_interface_contract(itf) for itf in model.interfaces)
        iface_text += "// ----------------------------\n"
        texts.append(iface_text)

    factory: List[str] = []
    factory.append("contract ProcessFactory {")
    factory.append("    address[] public createdInstances;")
    factory.append("")
    factory.append("    event instanceCreated(address instanceAddress);")
    factory.append("")
    params = ", ".join(["address[] memory _participants"] + ctor_params)
    factory.append(f"    function createInstance({params}) public returns (address) {{")
    args = ", ".join([" /*_participants*/ "] if not ctor_args else ctor_args)
    factory.append(f"        ProcessMonitor instance = new ProcessMonitor({args});")
    factory.append("        createdInstances.push(address(instance));")
    factory.append("        emit instanceCreated(address(instance));")
    factory.append("        return address(instance);")
    factory.append("    }")
    factory.append("}")
    texts.append("\n".join(factory) + "\n")

    storage = _storage_vars(model)
    b: List[str] = []
    b.append("contract ProcessMonitor {")
    b.append("    // ---------- PROCESS VARIABLES")
    for name, type_name, _ in storage:
        b.append(f"    {type_name} _{name};")
    b.append("    // ----------------------------")
    b.append("")
    b.append("    // -------- EXTERNAL SMART CONTRACT ADDRESSES")
    for itf in model.interfaces:
        if itf.contract_address is not None:
            b.append(f"    address addressOf{itf.name} = {itf.contract_address};")
        else:
            b.append(f"    address addressOf{itf.name};")
    b.append("    // ------------------------------------")
    b.append("")
    b.append("    uint public marking;")
    b.append("")
    b.append("    event taskExecuted(string taskName, bool success);")
    b.append("")
    b.append(f"    constructor({', '.join(ctor_params)}) public {{")
    for name, type_name, initial in storage:
        # a string without an initial value stays zero-initialized
        value = _sol_literal(initial, type_name) if initial is not None else \
            {"uint256": "0", "int256": "0", "bool": "false",
             "address": "address(0)"}.get(type_name)
        if value is not None:
            b.append(f"        _{name} = {value};")
    for itf in unbound:
        b.append(f"        addressOf{itf.name} = _addressOf{itf.name};")
    b.append(f"        marking = runAutoTransitions({_hex(automaton.initial_marking)});")
    b.append("    }")

    # externally invoked tasks: public functions
    for task_id, t in automaton.external.items():
        node = model.node(task_id)
        task_name = _sol_literal(node.display_name, "string")
        body = [f"            _{ti.name} = {ti.name};" for ti in node.task_inputs]
        body += ["            " + line for line in _invocation_lines(model, task_id, types)]
        b.append("")
        b.append(f"    function {function_name(node)}"
                 f"({_params_text(node.task_inputs, 'memory')}) public {{")
        b.append("        uint preconditionsp = marking;")
        for i, pre in enumerate(t.pre_alternatives):
            kw = "} else if" if i else "if"
            b.append(f"        {kw} ( (preconditionsp & {_hex(pre)} == {_hex(pre)}) ) {{")
            b.extend(body)
            b.append(f"            marking = runAutoTransitions("
                     f"preconditionsp & uint(~{_hex(pre)})  | {_hex(t.branches[0].post)});")
            b.append(f"            emit taskExecuted({task_name}, true);")
        b.append("        } else {")
        b.append(f"            emit taskExecuted({task_name}, false);")
        b.append("        }")
        b.append("    }")

    # auto transitions: internal functions, Listing-style
    auto_fns = [function_name(model.node(t.node_id)) for t in automaton.autos]
    for t, fn_name in zip(automaton.autos, auto_fns):
        b.append("")
        b.append(f"    function {fn_name}(uint preconditionsp) internal returns (uint) {{")
        body = [f"            _{st.target} = {render_expr(st.value, types)};"
                for st in model.node(t.node_id).script]
        body += ["            " + line for line in _invocation_lines(model, t.node_id, types)]
        for i, pre in enumerate(t.pre_alternatives):
            kw = "} else if" if i else "if"
            b.append(f"        {kw} ( (preconditionsp & {_hex(pre)} == {_hex(pre)}) ) {{")
            b.extend(body)
            # guarded branches, then the unguarded tail compile_marking puts last
            for br in t.branches:
                if br.guard is not None:
                    b.append(f"            if ({render_expr(br.guard, types)}) {{")
                    b.append(f"                return preconditionsp & uint(~{_hex(pre)})"
                             f"  | {_hex(br.post)};")
                    b.append("            }")
                elif br.post:
                    b.append(f"            return preconditionsp & uint(~{_hex(pre)})"
                             f"  | {_hex(br.post)};")
                else:
                    b.append(f"            return preconditionsp & uint(~{_hex(pre)});")
            if t.branches[-1].guard is not None:
                b.append("            return preconditionsp;  // no branch satisfiable")
        b.append("        } else")
        b.append("            return preconditionsp;")
        b.append("    }")

    b.append("")
    b.append("    function runAutoTransitions(uint preconditionsp) internal returns (uint) {")
    b.append("        uint previous = ~preconditionsp;")
    b.append("        while (previous != preconditionsp) {")
    b.append("            previous = preconditionsp;")
    for fn_name in auto_fns:
        b.append(f"            preconditionsp = {fn_name}(preconditionsp);")
    b.append("        }")
    b.append("        return preconditionsp;")
    b.append("    }")
    b.append("}")
    texts.append("\n".join(b) + "\n")
    return _unit("ProcessFactory.sol", texts)
