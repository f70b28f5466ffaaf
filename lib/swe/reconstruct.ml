open Mpas_numerics
open Mpas_mesh

type t = {
  coef : Vec3.t array array;  (** per cell, aligned with edges_on_cell *)
  east : Vec3.t array;
  north : Vec3.t array;
}

let vertical (m : Mesh.t) c =
  match m.geometry with
  | Mesh.Sphere _ -> m.x_cell.(c)
  | Mesh.Plane _ -> Vec3.ez

let basis (m : Mesh.t) c =
  match m.geometry with
  | Mesh.Plane _ -> (Vec3.ex, Vec3.ey)
  | Mesh.Sphere _ -> (
      match Sphere.tangent_basis m.x_cell.(c) with
      | b -> b
      | exception Invalid_argument _ ->
          (* Exact pole: geographic east is undefined; keep the frame
             right-handed about the outward normal. *)
          let east = Vec3.ex in
          (east, Vec3.cross m.x_cell.(c) east))

let init (m : Mesh.t) =
  let coef =
    Array.init m.n_cells (fun c ->
        let n = m.n_edges_on_cell.(c) in
        let mat = Mat3.zero () in
        for j = 0 to n - 1 do
          Mat3.add_outer mat 1. m.edge_normal.(m.edges_on_cell.(c).(j))
        done;
        (* Pin the radial component to zero: edge normals are tangent
           to the sphere at the edge, not at the cell center, so the
           plain normal matrix is near-singular radially.  A penalty of
           the trace scale keeps the fit tangent without biasing it. *)
        let trace = mat.Mat3.m.(0) +. mat.Mat3.m.(4) +. mat.Mat3.m.(8) in
        Mat3.add_outer mat trace (vertical m c);
        let minv = Mat3.inv mat in
        Array.init n (fun j ->
            Mat3.mul_vec minv m.edge_normal.(m.edges_on_cell.(c).(j))))
  in
  let east = Array.make m.n_cells Vec3.ex in
  let north = Array.make m.n_cells Vec3.ey in
  for c = 0 to m.n_cells - 1 do
    let e, n = basis m c in
    east.(c) <- e;
    north.(c) <- n
  done;
  { coef; east; north }

(* A4 alone: the Cartesian least-squares reconstruction.  Kept
   bit-identical to the fused [run]: the accumulation is the same, only
   the horizontal projection is deferred to [run_horizontal]. *)
let run_cartesian ?on t (m : Mesh.t) ~u ~(out : Fields.reconstruction) =
  Operators.iter ?on m.n_cells (fun c ->
      let acc = ref Vec3.zero in
      let coefs = t.coef.(c) in
      for j = 0 to m.n_edges_on_cell.(c) - 1 do
        acc := Vec3.axpy u.(m.edges_on_cell.(c).(j)) coefs.(j) !acc
      done;
      let v = !acc in
      out.ux.(c) <- v.Vec3.x;
      out.uy.(c) <- v.Vec3.y;
      out.uz.(c) <- v.Vec3.z)

(* X6 alone: project the stored Cartesian vector onto the local
   east/north frame.  Reading the components back from [out] reproduces
   exactly the dot products of the fused form (they are the same float64
   values), so run_cartesian followed by run_horizontal matches [run]
   bit for bit. *)
let run_horizontal ?on t (m : Mesh.t) ~(out : Fields.reconstruction) =
  Operators.iter ?on m.n_cells (fun c ->
      let v = { Vec3.x = out.ux.(c); y = out.uy.(c); z = out.uz.(c) } in
      out.zonal.(c) <- Vec3.dot v t.east.(c);
      out.meridional.(c) <- Vec3.dot v t.north.(c))

(* The fused-runtime tile form of A4 [+X6]: one contiguous cell range
   with the Vec3 arithmetic scalarized — three float accumulators in
   axpy's exact operation order, the dot products expanded in dot's
   order — so no Vec3 record allocates inside the loop and the result
   stays bit-identical to [run] (with [x6]) or [run_cartesian]
   (without). *)
let run_range t (m : Mesh.t) ~u ~(out : Fields.reconstruction) ~x6 ~lo ~hi =
  for c = lo to hi - 1 do
    let ax = ref 0. and ay = ref 0. and az = ref 0. in
    let coefs = t.coef.(c) in
    let row = m.edges_on_cell.(c) in
    for j = 0 to m.n_edges_on_cell.(c) - 1 do
      let a = Array.unsafe_get u (Array.unsafe_get row j) in
      let cj = Array.unsafe_get coefs j in
      ax := (a *. cj.Vec3.x) +. !ax;
      ay := (a *. cj.Vec3.y) +. !ay;
      az := (a *. cj.Vec3.z) +. !az
    done;
    let vx = !ax and vy = !ay and vz = !az in
    out.ux.(c) <- vx;
    out.uy.(c) <- vy;
    out.uz.(c) <- vz;
    if x6 then begin
      let e = t.east.(c) and n = t.north.(c) in
      out.zonal.(c) <- (vx *. e.Vec3.x) +. (vy *. e.Vec3.y) +. (vz *. e.Vec3.z);
      out.meridional.(c) <-
        (vx *. n.Vec3.x) +. (vy *. n.Vec3.y) +. (vz *. n.Vec3.z)
    end
  done

let run ?on t (m : Mesh.t) ~u ~(out : Fields.reconstruction) =
  Operators.iter ?on m.n_cells (fun c ->
      let acc = ref Vec3.zero in
      let coefs = t.coef.(c) in
      for j = 0 to m.n_edges_on_cell.(c) - 1 do
        acc := Vec3.axpy u.(m.edges_on_cell.(c).(j)) coefs.(j) !acc
      done;
      let v = !acc in
      out.ux.(c) <- v.Vec3.x;
      out.uy.(c) <- v.Vec3.y;
      out.uz.(c) <- v.Vec3.z;
      out.zonal.(c) <- Vec3.dot v t.east.(c);
      out.meridional.(c) <- Vec3.dot v t.north.(c))
