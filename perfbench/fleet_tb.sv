// Seeded-stimulus torture bench for the benchmark's `fleet` workload.
//
// Four producer lanes push into their own 8-deep FIFO whenever
// $urandom says so; a round-robin arbiter pops one non-empty FIFO per
// cycle while the (also random) consumer is ready. The scoreboard checks
// every popped word against the lane's expected sequence (no loss, no
// duplication, no reordering), FIFO occupancy bounds, and the arbiter's
// one-hot, requested-only, work-conserving and starvation-free grants.
//
// The run length comes from the `+cycles=<n>` plusarg. Under
// `llhd-sim --batch=N --seed=S` instance i draws its stimulus from seed
// S + i, so every instance takes a different path through the design.

module fifo (input clk, input rst, input push, input [15:0] din,
             input pop, output [15:0] dout, output full, output empty);
  bit [15:0] mem [0:7];
  bit [3:0] wptr, rptr;
  always_ff @(posedge clk) begin
    if (rst) begin
      wptr <= 4'd0;
      rptr <= 4'd0;
    end else begin
      if (push && !full) begin
        mem[wptr[2:0]] <= din;
        wptr <= wptr + 4'd1;
      end
      if (pop && !empty) rptr <= rptr + 4'd1;
    end
  end
  assign empty = wptr == rptr;
  assign full = (wptr[2:0] == rptr[2:0]) && (wptr[3] != rptr[3]);
  assign dout = mem[rptr[2:0]];
endmodule

module rr_arbiter (input clk, input rst, input [3:0] req,
                   output bit [3:0] gnt);
  bit [1:0] last;
  always_comb begin
    bit [1:0] idx;
    bit found;
    gnt = 4'b0000;
    found = 0;
    for (int k = 1; k <= 4; k++) begin
      idx = last + k[1:0];
      if (!found && req[idx]) begin
        gnt = 4'b0001 << idx;
        found = 1;
      end
    end
  end
  always_ff @(posedge clk) begin
    if (rst) last <= 2'd3;
    else if (gnt != 4'b0000) begin
      if (gnt[0]) last <= 2'd0;
      if (gnt[1]) last <= 2'd1;
      if (gnt[2]) last <= 2'd2;
      if (gnt[3]) last <= 2'd3;
    end
  end
endmodule

module fleet_tb;
  bit clk, rst, rdy;
  bit push0, push1, push2, push3;
  bit pop0, pop1, pop2, pop3;
  bit full0, full1, full2, full3;
  bit empty0, empty1, empty2, empty3;
  bit [15:0] din0, din1, din2, din3;
  bit [15:0] dout0, dout1, dout2, dout3;
  bit [3:0] req, gnt;

  fifo f0 (.clk(clk), .rst(rst), .push(push0), .din(din0), .pop(pop0),
           .dout(dout0), .full(full0), .empty(empty0));
  fifo f1 (.clk(clk), .rst(rst), .push(push1), .din(din1), .pop(pop1),
           .dout(dout1), .full(full1), .empty(empty1));
  fifo f2 (.clk(clk), .rst(rst), .push(push2), .din(din2), .pop(pop2),
           .dout(dout2), .full(full2), .empty(empty2));
  fifo f3 (.clk(clk), .rst(rst), .push(push3), .din(din3), .pop(pop3),
           .dout(dout3), .full(full3), .empty(empty3));
  rr_arbiter arb (.clk(clk), .rst(rst), .req(req), .gnt(gnt));

  assign req = {!empty3 && rdy, !empty2 && rdy, !empty1 && rdy,
                !empty0 && rdy};
  assign pop0 = gnt[0];
  assign pop1 = gnt[1];
  assign pop2 = gnt[2];
  assign pop3 = gnt[3];

  initial begin
    bit [31:0] n, i, r;
    bit [31:0] ws0, ws1, ws2, ws3, rs0, rs1, rs2, rs3;
    bit [31:0] w0, w1, w2, w3;
    n = $plusarg$value("cycles", 1000);
    ws0 = 0; ws1 = 0; ws2 = 0; ws3 = 0;
    rs0 = 0; rs1 = 0; rs2 = 0; rs3 = 0;
    w0 = 0; w1 = 0; w2 = 0; w3 = 0;
    rst = 1;
    #1ns; clk = 1; #1ns; clk = 0;
    rst = 0;
    i = 0;
    while (i < n) begin
      r = $urandom;
      push0 = r[1:0] != 2'd0;
      push1 = r[3:2] != 2'd0;
      push2 = r[5:4] != 2'd0;
      push3 = r[7:6] != 2'd0;
      rdy = r[9:8] != 2'd0;
      // Payloads are a function of (lane, sequence number), so the
      // scoreboard recomputes what each pop must deliver.
      din0 = ws0[15:0] * 16'd40503 + 16'd1;
      din1 = ws1[15:0] * 16'd40503 + 16'd2;
      din2 = ws2[15:0] * 16'd40503 + 16'd3;
      din3 = ws3[15:0] * 16'd40503 + 16'd4;
      #1ns;
      assert((gnt & (gnt - 4'd1)) == 4'd0);
      assert((gnt & ~req) == 4'd0);
      if (req != 4'd0) assert(gnt != 4'd0);
      if (gnt[0]) begin
        assert(dout0 == rs0[15:0] * 16'd40503 + 16'd1);
        rs0 = rs0 + 1;
      end
      if (gnt[1]) begin
        assert(dout1 == rs1[15:0] * 16'd40503 + 16'd2);
        rs1 = rs1 + 1;
      end
      if (gnt[2]) begin
        assert(dout2 == rs2[15:0] * 16'd40503 + 16'd3);
        rs2 = rs2 + 1;
      end
      if (gnt[3]) begin
        assert(dout3 == rs3[15:0] * 16'd40503 + 16'd4);
        rs3 = rs3 + 1;
      end
      // Starvation: a lane that keeps requesting is granted within
      // three grants to other lanes.
      if (req[0] && !gnt[0]) w0 = w0 + 1; else w0 = 0;
      if (req[1] && !gnt[1]) w1 = w1 + 1; else w1 = 0;
      if (req[2] && !gnt[2]) w2 = w2 + 1; else w2 = 0;
      if (req[3] && !gnt[3]) w3 = w3 + 1; else w3 = 0;
      assert(w0 <= 3 && w1 <= 3 && w2 <= 3 && w3 <= 3);
      if (push0 && !full0) ws0 = ws0 + 1;
      if (push1 && !full1) ws1 = ws1 + 1;
      if (push2 && !full2) ws2 = ws2 + 1;
      if (push3 && !full3) ws3 = ws3 + 1;
      clk = 1;
      #1ns; clk = 0;
      assert(rs0 <= ws0 && ws0 - rs0 <= 8);
      assert(rs1 <= ws1 && ws1 - rs1 <= 8);
      assert(rs2 <= ws2 && ws2 - rs2 <= 8);
      assert(rs3 <= ws3 && ws3 - rs3 <= 8);
      i = i + 1;
    end
    // Traffic flowed on every lane.
    assert(rs0 != 0 && rs1 != 0 && rs2 != 0 && rs3 != 0);
    $finish;
  end
endmodule
