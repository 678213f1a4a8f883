"""Batch simulation and equivalence verification, end to end.

The ICDB verifies every generated component functionally (the paper's
Section 4.3 runs a VHDL simulator over the synthesized design).  This
example shows that verification subsystem at every layer:

* ``session.simulate`` -- batch vector simulation of a generated
  instance, one big-integer lane per vector (combinational sweep) or a
  clocked single-trace run;
* ``session.check_equivalence`` -- the instance's gate netlist checked
  against a flat IIF reference, auto-dispatching between the exhaustive
  / sampled combinational sweep and the sequential lock-step check;
* a counterexample when the netlist is deliberately sabotaged;
* the planner's ``require_equivalent_to`` bound pruning a non-equivalent
  candidate during design-space exploration;
* the same calls over the wire through a RemoteClient.

Run with::

    python examples/verify_component.py
"""

from __future__ import annotations

from repro.api import ComponentService, PlanPoint, QuerySpec, minimize
from repro.components.counters import DOWN_ONLY, UP_ONLY, counter_parameters
from repro.net import connect, serve


def main() -> None:
    service = ComponentService(job_workers=4)
    session = service.create_session(client="verify-example")

    # ----------------------------------------------------- batch simulation
    adder = session.request_component(
        implementation="ripple_carry_adder", parameters={"size": 2}
    )
    # 1+2 and 3+3+1, one lane each; outputs arrive in vector order.
    vectors = [
        {"I0[0]": 1, "I1[1]": 1},
        {"I0[0]": 1, "I0[1]": 1, "I1[0]": 1, "I1[1]": 1, "Cin": 1},
    ]
    answer = session.simulate(adder.name, vectors)
    print("== simulate ==")
    for vector, outputs in zip(vectors, answer["vectors"]):
        print(f"  {vector} -> {outputs}")

    # ------------------------------------------------- equivalence checking
    print("\n== check_equivalence ==")
    verdict = session.check_equivalence(adder.name)
    print(f"  {adder.name}: equivalent={verdict['equivalent']} "
          f"mode={verdict['mode']} vectors={verdict['vectors_checked']}")

    counter = session.request_component(
        implementation="counter",
        parameters=counter_parameters(size=3, up_or_down=UP_ONLY),
    )
    verdict = session.check_equivalence(counter.name)  # clocked -> lock-step
    print(f"  {counter.name}: equivalent={verdict['equivalent']} "
          f"mode={verdict['mode']} vectors={verdict['vectors_checked']}")

    # A sabotaged netlist yields a counterexample, not just "False".
    netlist = session.instances.get(adder.name).netlist
    victim = next(
        inst for inst in netlist.all_instances() if inst.cell.kind == "XOR2"
    )
    netlist.reconnect(victim.name, {"I0": victim.net("I1")})
    broken = session.check_equivalence(adder.name)
    print(f"  sabotaged adder: equivalent={broken['equivalent']} "
          f"counterexample={broken['counterexample']} "
          f"outputs={broken['mismatched_outputs']}")
    netlist.reconnect(victim.name, {"I0": victim.net("I0")})

    # ------------------------------------- planner equivalence bound (DSE)
    print("\n== planner require_equivalent_to ==")
    session.request_component(
        implementation="counter",
        parameters=counter_parameters(size=2, up_or_down=UP_ONLY),
        instance_name="golden_up",
    )
    result = session.plan(
        QuerySpec(
            points=(
                PlanPoint(
                    label="up",
                    implementation="counter",
                    parameters=counter_parameters(size=2, up_or_down=UP_ONLY),
                ),
                PlanPoint(
                    label="down",
                    implementation="counter",
                    parameters=counter_parameters(size=2, up_or_down=DOWN_ONLY),
                ),
            ),
            objective=minimize("area"),
            require_equivalent_to="golden_up",
        )
    )
    for report in result.candidates:
        reason = f"  ({report.reason})" if report.reason else ""
        print(f"  {report.label:6s} {report.status}{reason}")
    print("  winner:", result.winner.label)

    # ----------------------------------------------------------- over TCP
    print("\n== over the wire ==")
    server = serve(service=service, port=0)
    try:
        client = connect(server.host, server.port, client="verify-remote")
        remote = client.check_equivalence(adder.name)
        print(f"  remote check_equivalence: equivalent={remote['equivalent']} "
              f"mode={remote['mode']}")
        assert remote["equivalent"] == session.check_equivalence(adder.name)["equivalent"]
        client.close()
    finally:
        server.stop()
    service.jobs.shutdown()


if __name__ == "__main__":
    main()
