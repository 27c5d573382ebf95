"""Deterministic Solidity source emission.

Three generators: ERC-20 style token registries, ERC-721 style record
registries (single or distributed), and the process contracts (interface
declarations, ProcessFactory, ProcessMonitor) realizing the marking
automaton. Output is plain text, LF line endings, 4-space indentation,
no timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .ir import (
    BinOp,
    Expr,
    Lit,
    Node,
    NodeKind,
    PROCESS_ADDRESS,
    ProcessModel,
    SmartContractInterfaceDecl,
    UnaryOp,
    Var,
    sanitize_identifier,
)
from .marking import MarkingAutomaton
from .registry import FungibleRegistrySpec, NonFungibleRegistrySpec

PRAGMA = "^0.5.8"


@dataclass(frozen=True)
class SourceUnit:
    file_name: str
    pragma_version: str
    contracts: Tuple[str, ...]
    rendered_text: str


def contract_name(display_name: str) -> str:
    """'Lorikeet Coin' -> 'LorikeetCoin' (inner capitals preserved)."""
    words = [w for w in "".join(c if c.isalnum() else " " for c in display_name).split()]
    name = "".join(w[0].upper() + w[1:] for w in words if w)
    if not name:
        return "Contract"
    if name[0].isdigit():
        name = "C" + name
    return name


def _unit(file_name: str, contracts: List[Tuple[str, str]]) -> SourceUnit:
    body = f"pragma solidity {PRAGMA};\n\n" + "\n".join(text for _, text in contracts)
    return SourceUnit(file_name=file_name, pragma_version=PRAGMA,
                      contracts=tuple(name for name, _ in contracts),
                      rendered_text=body)


def _sol_type(type_name: str, location: str = "") -> str:
    if type_name == "string" and location:
        return f"string {location}"
    return type_name


def _sol_literal(value, type_name: str) -> str:
    if type_name == "bool" or isinstance(value, bool):
        return "true" if value else "false"
    if type_name == "string":
        return '"' + str(value).replace('"', '\\"') + '"'
    if type_name == "address":
        return str(value)
    return str(value)


# ---------------------------------------------------------------------------
# Fungible registry (ERC-20)


def gen_fungible(spec: FungibleRegistrySpec) -> SourceUnit:
    name = contract_name(spec.name)
    b: List[str] = []
    b.append(f"contract {name} {{")
    b.append(f'    string public name = "{spec.name}";')
    b.append(f'    string public symbol = "{spec.symbol}";')
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
    return _unit(name + ".sol", [(name, "\n".join(b) + "\n")])


# ---------------------------------------------------------------------------
# Non-fungible registry (ERC-721 style, address-typed record ids)


def _nft_attr_params(spec: NonFungibleRegistrySpec, location: str) -> str:
    return ", ".join(f"{_sol_type(a.type, location)} {a.name}" for a in spec.attributes)


def _nft_needs_process(spec: NonFungibleRegistrySpec) -> bool:
    return (spec.is_record_creation_restricted_to_bpmn
            or spec.is_ownership_transfer_enabled_to_bpmn)


def gen_nonfungible(spec: NonFungibleRegistrySpec) -> SourceUnit:
    name = contract_name(spec.name) + "Registry"
    contracts: List[Tuple[str, str]] = []
    if spec.registry_type == "distributed":
        record_contract = contract_name(spec.name) + "Record"
        contracts.append((record_contract, _gen_record_contract(spec, record_contract)))
        contracts.append((name, _gen_nft_registry(spec, name, record_contract)))
    else:
        contracts.append((name, _gen_nft_registry(spec, name, None)))
    return _unit(name + ".sol", contracts)


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
    distributed = record_contract is not None
    b = [f"contract {name} {{"]
    b.append("    address public deployer;")
    if _nft_needs_process(spec):
        b.append("    address public processAddress;")
    if spec.is_access_control_by_smart_contract_enabled:
        b.append("    address public accessController;")
    b.append("")
    if distributed:
        b.append(f"    mapping(address => {record_contract}) private records;")
        b.append("    mapping(address => bool) private recordExists;")
        b.append(f"    address[] public recordContracts;")
    else:
        b.append("    struct Record {")
        b.append("        bool exists;")
        b.append("        address owner;")
        for a in spec.attributes:
            b.append(f"        {a.type} {a.name};")
        b.append("    }")
        b.append("    mapping(address => Record) private records;")
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
            b.append(f"    event {a.name[0].upper() + a.name[1:]}Changed("
                     f"address indexed recordId, {a.type} value);")
    b.append("")
    ctor_params = []
    if _nft_needs_process(spec):
        ctor_params.append("address _processAddress")
    if spec.is_access_control_by_smart_contract_enabled:
        ctor_params.append("address _accessController")
    b.append(f"    constructor({', '.join(ctor_params)}) public {{")
    b.append("        deployer = msg.sender;")
    if _nft_needs_process(spec):
        b.append("        processAddress = _processAddress;")
    if spec.is_access_control_by_smart_contract_enabled:
        b.append("        accessController = _accessController;")
    b.append("    }")
    b.append("")
    if _nft_needs_process(spec):
        b.append("    modifier onlyProcess() {")
        b.append('        require(msg.sender == processAddress, "restricted to the bound process");')
        b.append("        _;")
        b.append("    }")
        b.append("")
    if spec.is_registry_function_access_control_enabled:
        b.append("    modifier onlyAuthorized() {")
        guard = "msg.sender == deployer"
        if spec.is_access_control_by_smart_contract_enabled:
            guard += " || msg.sender == accessController"
        if _nft_needs_process(spec):
            guard += " || msg.sender == processAddress"
        b.append(f'        require({guard}, "caller not authorized");')
        b.append("        _;")
        b.append("    }")
        b.append("")

    exists = "recordExists[record_id]" if distributed else "records[record_id].exists"
    owner_of = ("records[record_id].owner()" if distributed
                else "records[record_id].owner")

    b.append("    function next_record_id() public view returns (address) {")
    b.append("        return address(uint160(recordCount + 1));")
    b.append("    }")
    b.append("")

    create_mods = ""
    if spec.is_record_creation_restricted_to_bpmn:
        create_mods += " onlyProcess"
    elif spec.is_registry_function_access_control_enabled:
        create_mods += " onlyAuthorized"
    b.append(f"    function record_create(address record_id, "
             f"{_nft_attr_params(spec, 'memory')}) public{create_mods} {{")
    b.append(f'        require(!{exists}, "record already exists");')
    if distributed:
        attr_args = ", ".join(a.name for a in spec.attributes)
        b.append(f"        records[record_id] = new {record_contract}(msg.sender, {attr_args});")
        b.append("        recordExists[record_id] = true;")
        b.append("        recordContracts.push(address(records[record_id]));")
    else:
        attr_args = ", ".join(a.name for a in spec.attributes)
        b.append(f"        records[record_id] = Record(true, msg.sender, {attr_args});")
    b.append("        ownedCount[msg.sender] += 1;")
    b.append("        recordCount += 1;")
    b.append("        emit Transfer(address(0), msg.sender, record_id);")
    for a in spec.attributes:
        if a.history_tracked:
            b.append(f"        emit {a.name[0].upper() + a.name[1:]}Changed(record_id, {a.name});")
    b.append("    }")
    b.append("")
    if distributed:
        b.append("    function recordContractOf(address record_id) public view returns (address) {")
        b.append(f'        require({exists}, "unknown record");')
        b.append("        return address(records[record_id]);")
        b.append("    }")
        b.append("")
    b.append("    function record_get_owner(address record_id) public view returns (address record_owner) {")
    b.append(f'        require({exists}, "unknown record");')
    b.append(f"        return {owner_of};")
    b.append("    }")
    b.append("")
    attr_returns = ", ".join(f"{_sol_type(a.type, 'memory')} {a.name}" for a in spec.attributes)
    b.append(f"    function record_get_attrs(address record_id) public view returns ({attr_returns}) {{")
    b.append(f'        require({exists}, "unknown record");')
    if distributed:
        reads = ", ".join(f"records[record_id].{a.name}()" for a in spec.attributes)
    else:
        reads = ", ".join(f"records[record_id].{a.name}" for a in spec.attributes)
    b.append(f"        return ({reads});")
    b.append("    }")
    for a in spec.attributes:
        if not a.updatable:
            continue
        update_mods = ""
        if spec.is_record_creation_restricted_to_bpmn:
            update_mods += " onlyProcess"
        elif spec.is_registry_function_access_control_enabled:
            update_mods += " onlyAuthorized"
        b.append("")
        b.append(f"    function record_update_{a.name}(address record_id, "
                 f"{_sol_type(a.type, 'memory')} value) public{update_mods} {{")
        b.append(f'        require({exists}, "unknown record");')
        if spec.is_registry_record_access_control_enabled:
            b.append(f'        require(msg.sender == {owner_of} || msg.sender == deployer, '
                     '"not the record owner");')
        if distributed:
            b.append(f"        records[record_id].set_{a.name}(value);")
        else:
            b.append(f"        records[record_id].{a.name} = value;")
        if a.history_tracked:
            b.append(f"        emit {a.name[0].upper() + a.name[1:]}Changed(record_id, value);")
        b.append("    }")

    b.append("")
    b.append("    function _transfer(address from, address to, address record_id) internal {")
    if distributed:
        b.append("        records[record_id].setOwner(to);")
    else:
        b.append("        records[record_id].owner = to;")
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


def _auto_fn_name(node: Node) -> str:
    """Function name of an auto-transition: a script task is named after
    its display name, a gateway or end event after its id."""
    return sanitize_identifier(
        node.display_name if node.kind == NodeKind.SCRIPT_TASK else node.id)


def render_expr(e: Expr, var_prefix: str = "_") -> str:
    if isinstance(e, Lit):
        return _sol_literal(e.value, e.type)
    if isinstance(e, Var):
        if e.name == PROCESS_ADDRESS:
            return "address(this)"
        return var_prefix + e.name
    if isinstance(e, UnaryOp):
        return f"{e.op}{render_expr(e.operand, var_prefix)}"
    if isinstance(e, BinOp):
        return f"({render_expr(e.left, var_prefix)} {e.op} {render_expr(e.right, var_prefix)})"
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


def _invocation_lines(model: ProcessModel, task_id: str) -> List[str]:
    lines: List[str] = []
    for inv in model.invocations_of(task_id):
        itf = model.interface(inv.target_interface)
        fn = itf.function(inv.fn_name)
        instance = "instanceOf" + itf.name
        lines.append(f"{itf.name} {instance} = {itf.name}(addressOf{itf.name});")
        by_param = {pb.param: pb for pb in inv.input_bindings}
        args = ", ".join(render_expr(by_param[p.name].source) for p in fn.inputs)
        call = f"{instance}.{inv.fn_name}({args})"
        if inv.output_bindings:
            by_ret = {pb.param: pb for pb in inv.output_bindings}
            slots = []
            for p in fn.outputs:
                slots.append("_" + by_ret[p.name].target if p.name in by_ret else "")
            if len(slots) == 1 and slots[0]:
                lines.append(f"{slots[0]} = {call};")
            else:
                lines.append(f"({', '.join(slots)}) = {call};")
        else:
            lines.append(f"{call};")
    return lines


def _storage_vars(model: ProcessModel):
    """Declared process variables plus task inputs not shadowing them."""
    out = []
    seen = set()
    for v in model.variables:
        out.append((v.name, v.type, v.initial))
        seen.add(v.name)
    for n in model.nodes:
        for ti in n.task_inputs:
            if ti.name not in seen:
                out.append((ti.name, ti.type, None))
                seen.add(ti.name)
    return out


def gen_process(model: ProcessModel, automaton: MarkingAutomaton) -> SourceUnit:
    """Emit ProcessFactory.sol: interface contracts, the factory, and the
    ProcessMonitor implementing the marking automaton."""
    unbound = [itf for itf in model.interfaces if itf.contract_address is None]
    ctor_params = [f"address _addressOf{itf.name}" for itf in unbound]
    ctor_args = [f"_addressOf{itf.name}" for itf in unbound]

    chunks: List[Tuple[str, str]] = []
    if model.interfaces:
        iface_text = "// -------- EXTERNAL SMART CONTRACT INTERFACES\n"
        iface_text += "\n".join(_interface_contract(itf) for itf in model.interfaces)
        iface_text += "// ----------------------------\n"
        chunks.append((model.interfaces[0].name, iface_text))

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
    chunks.append(("ProcessFactory", "\n".join(factory) + "\n"))

    b: List[str] = []
    b.append("contract ProcessMonitor {")
    b.append("    // ---------- PROCESS VARIABLES")
    for name, type_name, _ in _storage_vars(model):
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
    for name, type_name, initial in _storage_vars(model):
        if type_name == "string" and initial is None:
            continue  # zero-initialized by default; no string literal needed
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
    for node in model.nodes:
        if node.id not in automaton.external:
            continue
        alts = automaton.external[node.id]
        fn_name = sanitize_identifier(node.display_name)
        params = _params_text(node.task_inputs, "memory")
        b.append("")
        b.append(f"    function {fn_name}({params}) public {{")
        b.append("        uint preconditionsp = marking;")
        first = True
        for i, alt in enumerate(alts):
            kw = "if" if first else "} else if"
            first = False
            b.append(f"        {kw} ( (preconditionsp & {_hex(alt.pre)} == {_hex(alt.pre)}) ) {{")
            for ti in node.task_inputs:
                b.append(f"            _{ti.name} = {ti.name};")
            for line in _invocation_lines(model, node.id):
                b.append("            " + line)
            b.append(f"            marking = runAutoTransitions("
                     f"preconditionsp & uint(~{_hex(alt.pre)})  | {_hex(alt.post)});")
            b.append(f'            emit taskExecuted("{node.display_name}", true);')
        b.append("        } else {")
        b.append(f'            emit taskExecuted("{node.display_name}", false);')
        b.append("        }")
        b.append("    }")

    # auto transitions: internal functions, Listing-style
    for t in automaton.autos:
        node = model.node(t.node_id)
        b.append("")
        b.append(f"    function {_auto_fn_name(node)}(uint preconditionsp) internal returns (uint) {{")
        first = True
        for pre in t.pre_alternatives:
            lead = "        if" if first else "        } else if"
            first = False
            b.append(f"{lead} ( (preconditionsp & {_hex(pre)} == {_hex(pre)}) ) {{")
            for st in node.script:
                b.append(f"            _{st.target} = {render_expr(st.value)};")
            for line in _invocation_lines(model, t.node_id):
                b.append("            " + line)
            guarded = [br for br in t.branches if br.guard is not None]
            default = next((br for br in t.branches if br.is_default), None)
            plain = [br for br in t.branches if br.guard is None and not br.is_default]
            for br in guarded:
                b.append(f"            if ({render_expr(br.guard)}) {{")
                b.append(f"                return preconditionsp & uint(~{_hex(pre)})"
                         f"  | {_hex(br.post)};")
                b.append("            }")
            tail = default or (plain[0] if plain else None)
            if tail is not None:
                if tail.post:
                    b.append(f"            return preconditionsp & uint(~{_hex(pre)})"
                             f"  | {_hex(tail.post)};")
                else:
                    b.append(f"            return preconditionsp & uint(~{_hex(pre)});")
            else:
                b.append("            return preconditionsp;  // no branch satisfiable")
        b.append("        } else")
        b.append("            return preconditionsp;")
        b.append("    }")

    b.append("")
    b.append("    function runAutoTransitions(uint preconditionsp) internal returns (uint) {")
    b.append("        uint previous = ~preconditionsp;")
    b.append("        while (previous != preconditionsp) {")
    b.append("            previous = preconditionsp;")
    for t in automaton.autos:
        fn_name = _auto_fn_name(model.node(t.node_id))
        b.append(f"            preconditionsp = {fn_name}(preconditionsp);")
    b.append("        }")
    b.append("        return preconditionsp;")
    b.append("    }")
    b.append("}")
    chunks.append(("ProcessMonitor", "\n".join(b) + "\n"))

    return _unit("ProcessFactory.sol", chunks)
