"""Random structurally-valid process models for equivalence testing.

Models are built from nested blocks (single task, sequence, parallel
split/join, exclusive split/join) so they always pass validation; size is
kept small by rejecting drafts with too many flows.
"""

import random

from procforge.ir import Lit, Node, NodeKind, ProcessModel, SequenceFlow, validate_model


class _Builder:
    def __init__(self):
        self.nodes = []
        self.flows = []
        self.n = 0

    def fresh(self, prefix):
        self.n += 1
        return f"{prefix}{self.n}"

    def node(self, kind, name=""):
        nid = self.fresh("n")
        self.nodes.append(Node(nid, kind, name=name))
        return nid

    def flow(self, src, dst, condition=None, is_default=False):
        self.flows.append(SequenceFlow(self.fresh("f"), src, dst,
                                       condition=condition, is_default=is_default))


def _task(b, rng):
    nid = b.node(NodeKind.USER_TASK, name=f"T{b.n}")
    return nid, nid


def _sequence(b, rng, depth):
    first_in = prev_out = None
    for _ in range(rng.randint(1, 2)):
        i, o = _block(b, rng, depth)
        if first_in is None:
            first_in = i
        else:
            b.flow(prev_out, i)
        prev_out = o
    return first_in, prev_out


def _parallel(b, rng, depth):
    split = b.node(NodeKind.AND_GATEWAY)
    join = b.node(NodeKind.AND_GATEWAY)
    for _ in range(2):
        i, o = _block(b, rng, depth)
        b.flow(split, i)
        b.flow(o, join)
    return split, join


def _exclusive(b, rng, depth):
    split = b.node(NodeKind.XOR_GATEWAY)
    join = b.node(NodeKind.XOR_GATEWAY)
    for k in range(2):
        i, o = _block(b, rng, depth)
        b.flow(split, i,
               condition=None if k == 0 else Lit(True, "bool"),
               is_default=k == 0)
        b.flow(o, join)
    return split, join


def _block(b, rng, depth):
    if depth <= 0:
        return _task(b, rng)
    kind = rng.choices(["task", "seq", "par", "xor"], weights=[4, 2, 2, 2])[0]
    if kind == "task":
        return _task(b, rng)
    if kind == "seq":
        return _sequence(b, rng, depth - 1)
    if kind == "par":
        return _parallel(b, rng, depth - 1)
    return _exclusive(b, rng, depth - 1)


def random_model(rng: random.Random, max_flows: int = 10) -> ProcessModel:
    """One valid model with at most max_flows sequence flows."""
    while True:
        b = _Builder()
        start = b.node(NodeKind.START_EVENT)
        end = b.node(NodeKind.END_EVENT)
        i, o = _block(b, rng, depth=2)
        b.flow(start, i)
        b.flow(o, end)
        model = ProcessModel(id="rand", nodes=tuple(b.nodes), flows=tuple(b.flows))
        if len(model.flows) <= max_flows and validate_model(model).ok:
            return model


def parallel_chain(n: int) -> ProcessModel:
    """start -> AND split -> n branches of user tasks A{i} then B{i} ->
    AND join -> end: 3n + 2 flows and (2n)! / 2^n conforming traces."""
    nodes = [Node("start", NodeKind.START_EVENT), Node("split", NodeKind.AND_GATEWAY)]
    flows = [SequenceFlow("f_start", "start", "split")]
    for i in range(n):
        nodes += [Node(f"a{i}", NodeKind.USER_TASK, name=f"A{i}"),
                  Node(f"b{i}", NodeKind.USER_TASK, name=f"B{i}")]
        flows += [SequenceFlow(f"f_a{i}", "split", f"a{i}"),
                  SequenceFlow(f"f_b{i}", f"a{i}", f"b{i}"),
                  SequenceFlow(f"f_j{i}", f"b{i}", "join")]
    nodes += [Node("join", NodeKind.AND_GATEWAY), Node("end", NodeKind.END_EVENT)]
    flows.append(SequenceFlow("f_end", "join", "end"))
    return ProcessModel(id=f"chain{n}", nodes=tuple(nodes), flows=tuple(flows))


def _loop_bpmn(after_task: bool, variables: str, loop: str) -> str:
    """A process whose loop, given as the nodes and flows after the XOR
    join g_join, follows the start event, or the task "Go" that pays 5 LRK
    to 0x1111... when after_task."""
    go = ('<userTask id="t_go" name="Go"/>'
          '<sequenceFlow id="f0" sourceRef="t_go" targetRef="g_join"/>') if after_task else ""
    pay = """
      <bcext:smartContractInterface id="itf_lrk" name="LorikeetCoin">
        <bcext:function name="transfer">
          <bcext:input name="to" type="address"/>
          <bcext:input name="amount" type="uint256"/>
          <bcext:output name="success" type="bool"/>
        </bcext:function>
      </bcext:smartContractInterface>
      <bcext:invocation sourceTask="t_go" targetInterface="itf_lrk" fnName="transfer">
        <bcext:bindIn param="to" source="0x1111111111111111111111111111111111111111"/>
        <bcext:bindIn param="amount" source="5"/>
      </bcext:invocation>""" if after_task else ""
    return f"""<?xml version="1.0" encoding="UTF-8"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"
             xmlns:bcext="urn:procforge:bcext:1" id="defs_loop">
  <process id="loop">
    <extensionElements>
      <bcext:variables>{variables}
      </bcext:variables>{pay}
    </extensionElements>
    <startEvent id="start"/>
    {go}
    <sequenceFlow id="f1" sourceRef="start" targetRef="{"t_go" if after_task else "g_join"}"/>
    <exclusiveGateway id="g_join"/>{loop}
  </process>
</definitions>
"""


def counting_loop_bpmn(after_task: bool) -> str:
    """A valid model whose automatic loop parks its token: an XOR join,
    the script x = x + 1 and an XOR split that loops back while x < 1000,
    else leads to "Done". The first sweep leaves x = 1 and the token on
    the loop-back flow f4; the second ends there too, with x = 2, so the
    closure stops and "Done" is never enabled, as on chain. With
    after_task the loop follows the task "Go" (see _loop_bpmn)."""
    return _loop_bpmn(after_task, """
        <bcext:variable name="x" type="uint256"/>""", """
    <scriptTask id="s_inc" name="Count"><script>x = x + 1</script></scriptTask>
    <exclusiveGateway id="g_split"/>
    <userTask id="t_done" name="Done"/>
    <endEvent id="end"/>
    <sequenceFlow id="f2" sourceRef="g_join" targetRef="s_inc"/>
    <sequenceFlow id="f3" sourceRef="s_inc" targetRef="g_split"/>
    <sequenceFlow id="f4" sourceRef="g_split" targetRef="g_join">
      <conditionExpression>x &lt; 1000</conditionExpression>
    </sequenceFlow>
    <sequenceFlow id="f5" sourceRef="g_split" targetRef="t_done" default="true"/>
    <sequenceFlow id="f6" sourceRef="t_done" targetRef="end"/>""")


def toggle_loop_bpmn(after_task: bool) -> str:
    """A valid model whose automatic loop never parks: an XOR join, the
    script x = 1 - x; y = y + 1 and an XOR split that leads to "Done" when
    y > 1000, back to the join through the script "Even" when x == 0 and
    through "Odd" otherwise. Successive sweeps end on the two loop-back
    flows in turn, so the closure exceeds its cap of 4 firings per flow;
    the emitted contract runs 1,001 sweeps to "Done". With after_task the
    loop follows the task "Go" (see _loop_bpmn)."""
    return _loop_bpmn(after_task, """
        <bcext:variable name="x" type="int256"/>
        <bcext:variable name="y" type="uint256"/>""", """
    <scriptTask id="s_step" name="Step"><script>x = 1 - x; y = y + 1</script></scriptTask>
    <exclusiveGateway id="g_split"/>
    <scriptTask id="s_even" name="Even"/>
    <scriptTask id="s_odd" name="Odd"/>
    <userTask id="t_done" name="Done"/>
    <endEvent id="end"/>
    <sequenceFlow id="f2" sourceRef="g_join" targetRef="s_step"/>
    <sequenceFlow id="f3" sourceRef="s_step" targetRef="g_split"/>
    <sequenceFlow id="f4" sourceRef="g_split" targetRef="t_done">
      <conditionExpression>y &gt; 1000</conditionExpression>
    </sequenceFlow>
    <sequenceFlow id="f5" sourceRef="g_split" targetRef="s_even">
      <conditionExpression>x == 0</conditionExpression>
    </sequenceFlow>
    <sequenceFlow id="f6" sourceRef="g_split" targetRef="s_odd" default="true"/>
    <sequenceFlow id="f7" sourceRef="s_even" targetRef="g_join"/>
    <sequenceFlow id="f8" sourceRef="s_odd" targetRef="g_join"/>
    <sequenceFlow id="f9" sourceRef="t_done" targetRef="end"/>""")


def spinning_loop_bpmn(after_task: bool) -> str:
    """A valid model whose automatic loop never settles, whatever the
    branch choices: from the XOR join g_join an AND split sends one token
    to the end event and one through the degenerate AND gateway g_back
    back to the join. g_back comes first in document order, so successive
    sweeps end on f4 and f5 in turn and none ends where it began: the
    emitted runAutoTransitions never returns. With after_task the loop
    follows the task "Go" (see _loop_bpmn)."""
    return _loop_bpmn(after_task, "", """
    <parallelGateway id="g_back"/>
    <parallelGateway id="g_split"/>
    <endEvent id="end"/>
    <sequenceFlow id="f2" sourceRef="g_join" targetRef="g_split"/>
    <sequenceFlow id="f3" sourceRef="g_split" targetRef="end"/>
    <sequenceFlow id="f4" sourceRef="g_split" targetRef="g_back"/>
    <sequenceFlow id="f5" sourceRef="g_back" targetRef="g_join"/>""")


def record_calls_bpmn() -> str:
    """A valid model whose user task "Register" creates a record in the
    registry at 0x7777... with its bindIns listed out of parameter order,
    after which the script "Read" binds only the second return of
    record_get_attrs (the record's quality) to the variable q."""
    return """<?xml version="1.0" encoding="UTF-8"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"
             xmlns:bcext="urn:procforge:bcext:1" id="defs_records">
  <process id="records">
    <extensionElements>
      <bcext:variables>
        <bcext:variable name="q" type="uint256"/>
      </bcext:variables>
      <bcext:smartContractInterface id="itf_titles" name="Titles"
          contractAddress="0x7777777777777777777777777777777777777777">
        <bcext:function name="record_create">
          <bcext:input name="record_id" type="address"/>
          <bcext:input name="weight" type="uint256"/>
          <bcext:input name="quality" type="uint256"/>
        </bcext:function>
        <bcext:function name="record_get_attrs">
          <bcext:input name="record_id" type="address"/>
          <bcext:output name="weight" type="uint256"/>
          <bcext:output name="quality" type="uint256"/>
        </bcext:function>
      </bcext:smartContractInterface>
      <bcext:invocation sourceTask="t_register" targetInterface="itf_titles"
                        fnName="record_create">
        <bcext:bindIn param="quality" source="grade"/>
        <bcext:bindIn param="record_id" source="id"/>
        <bcext:bindIn param="weight" source="kg"/>
      </bcext:invocation>
      <bcext:invocation sourceTask="s_read" targetInterface="itf_titles"
                        fnName="record_get_attrs">
        <bcext:bindIn param="record_id" source="id"/>
        <bcext:bindOut return="quality" target="q"/>
      </bcext:invocation>
    </extensionElements>
    <startEvent id="start"/>
    <userTask id="t_register" name="Register">
      <extensionElements>
        <bcext:input name="id" type="address"/>
        <bcext:input name="kg" type="uint256"/>
        <bcext:input name="grade" type="uint256"/>
      </extensionElements>
    </userTask>
    <scriptTask id="s_read" name="Read"/>
    <userTask id="t_done" name="Done"/>
    <endEvent id="end"/>
    <sequenceFlow id="f1" sourceRef="start" targetRef="t_register"/>
    <sequenceFlow id="f2" sourceRef="t_register" targetRef="s_read"/>
    <sequenceFlow id="f3" sourceRef="s_read" targetRef="t_done"/>
    <sequenceFlow id="f4" sourceRef="t_done" targetRef="end"/>
  </process>
</definitions>
"""
